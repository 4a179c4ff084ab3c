package main

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type report struct {
	out    output
	detail map[string]any // printed on the line before the result
	errs   []string
}

func (r *report) count(attempted int, errs ...string) {
	r.out.Attempted += attempted
	r.out.Failed += len(errs)
	r.errs = append(r.errs, errs...)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// run performs one benchmark invocation: repeated set-up phases, the
// untimed exact references, one untimed warm-up op, then the timed
// passes (untraced) or the traced measurement.
func run(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{out: output{Metrics: metrics{}}}
	b := &bench{cfg: cfg}

	var setupS, setupRefMs []float64
	var buildMs, compressMs []float64
	for i := 0; i < cfg.SetupReps; i++ {
		tr := &tracer{on: cfg.Trace}
		runtime.GC()
		setupRefMs = append(setupRefMs, ms(refKernel()))
		start := time.Now()
		images, digest, err := setup(cfg, tr)
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
		st := tr.selfTimes()
		buildMs = append(buildMs, ms(st["synth.build"].self))
		compressMs = append(compressMs, ms(st["core.compress"].self))
		if i == 0 {
			b.images, b.digest = images, digest
			continue
		}
		if digest != b.digest {
			rep.count(1, fmt.Sprintf("set-up phase %d: image digest %.12s, first phase %.12s", i+1, digest, b.digest))
		} else {
			rep.count(1)
		}
	}
	b.ops = buildOps(cfg.Workload, b.images)
	if err := b.exactReferences(); err != nil {
		return nil, err
	}
	runtime.GC()
	if _, _, err := b.stepOp(b.ops[0]); err != nil { // warm-up
		rep.count(1, err.Error())
	} else {
		rep.count(1)
	}

	m := rep.out.Metrics
	rep.detail = map[string]any{
		"workload": cfg.Workload, "seed": cfg.Seed, "scale": cfg.Scale, "r0_ms": cfg.RefMs,
		"ops": len(b.ops), "image_digest": b.digest, "setup_reps": cfg.SetupReps,
	}
	if !cfg.Trace {
		ph := b.measure(cfg.Seconds, cfg.MinPasses)
		rep.count(ph.attempted, ph.errs...)
		setup := median(setupS)
		m.set("setup_s", "s", setup*cfg.RefMs/median(setupRefMs))
		m.set("user_minstr_per_ref_s", "Minstr/ref-s", ph.minstrPerRefS(cfg.RefMs))
		m.set("max_rss_mb", "MB", maxRSSMB())
		rep.detail["host_setup_s"] = setup
		rep.detail["passes"] = ph.passes
		rep.detail["timed_s"] = ph.wall.Seconds()
		rep.detail["host_ref_ms"] = ph.refMedianMs()
		rep.detail["host_user_minstr_per_s"] = ph.rawMinstrPerS()
	} else {
		if err := b.traced(rep, buildMs, compressMs); err != nil {
			return nil, err
		}
	}
	exact := metrics{}
	b.exactMetrics(exact)
	if cfg.Trace {
		maps.Copy(m, exact)
	}
	for _, name := range []string{"sim_cpi", "slowdown.geomean", "code_ratio.geomean", "sampled_err_pct.max"} {
		rep.detail[name] = exact[name].Value
	}
	rep.out.Correct = rep.out.Failed == 0
	return rep, nil
}

// exactMetrics computes the simulated-axis metrics from each op's first
// successful result; they are identical on every run of the same seed.
func (b *bench) exactMetrics(m metrics) {
	var cycles, instrs float64
	var sum cpu.Stats
	var slow []float64
	var errMax float64
	for _, o := range b.ops {
		r := o.first
		if r == nil {
			continue
		}
		switch {
		case r.sample != nil:
			cycles += float64(r.sample.EstCycles)
			instrs += float64(r.sample.TotalInstrs)
			errMax = math.Max(errMax, 100*math.Abs(float64(r.sample.EstCycles)-float64(o.exact.Cycles))/float64(o.exact.Cycles))
			addStats(&sum, o.exact)
		case r.stats != nil:
			cycles += float64(r.stats.Cycles)
			instrs += float64(r.stats.Instrs)
			addStats(&sum, r.stats)
			if o.exact != nil {
				slow = append(slow, float64(r.stats.Cycles)/float64(o.exact.Cycles))
			}
		}
	}
	var ratios []float64
	var compressedBytes float64
	for _, img := range b.images {
		if img.native != img {
			ratios = append(ratios, float64(img.stored)/float64(img.orig))
			compressedBytes += float64(img.stored)
		}
	}
	m.set("sim_cpi", "cycles/instr", ratio(cycles, instrs))
	m.set("slowdown.geomean", "x", geomean(slow))
	m.set("code_ratio.geomean", "ratio", geomean(ratios))
	m.set("sampled_err_pct.max", "%", errMax)
	m.set("core.compressed_bytes", "bytes", compressedBytes)

	user := float64(sum.Instrs)
	kinstr := user / 1000
	m.set("sim.imiss_native_per_kinstr", "count/kinstr", ratio(float64(sum.IMissNative), kinstr))
	m.set("sim.imiss_compressed_per_kinstr", "count/kinstr", ratio(float64(sum.IMissCompressed), kinstr))
	m.set("sim.exceptions_per_kinstr", "count/kinstr", ratio(float64(sum.Exceptions), kinstr))
	m.set("sim.handler_instr_share", "ratio", ratio(float64(sum.HandlerInstrs), user+float64(sum.HandlerInstrs)))
	for k := cpu.CycleKind(0); k < cpu.NumCycleKinds; k++ {
		m.set("sim.cpi_stack."+k.Key(), "cycles/instr", ratio(float64(sum.CPIStack[k]), user))
	}
}

func addStats(acc *cpu.Stats, s *cpu.Stats) {
	acc.Cycles += s.Cycles
	acc.Instrs += s.Instrs
	acc.HandlerInstrs += s.HandlerInstrs
	acc.IMissNative += s.IMissNative
	acc.IMissCompressed += s.IMissCompressed
	acc.Exceptions += s.Exceptions
	for k := range s.CPIStack {
		acc.CPIStack[k] += s.CPIStack[k]
	}
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var l float64
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

// traced is the --trace 1 measurement. Phase A repeats the untraced
// loop, adding exact host allocation counts around each simulation.
// Phase B records spans around every layer call and takes a CPU profile
// of the process. Their normalised throughputs give trace.overhead_pct.
// Afterwards, untimed-by-the-loop baselines give the observer overheads
// and the host cost of a decompression exception.
func (b *bench) traced(rep *report, buildMs, compressMs []float64) error {
	cfg := b.cfg
	m := rep.out.Metrics

	b.measureAllocs = true
	phA := b.measure(cfg.Seconds/2, 1)
	b.measureAllocs = false
	rep.count(phA.attempted, phA.errs...)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	b.tr = tracer{on: true}
	phB := b.measure(cfg.Seconds/2, 1)
	pprof.StopCPUProfile()
	b.tr.on = false
	rep.count(phB.attempted, phB.errs...)
	samples, err := readProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares, coverage := profileShares(samples)
	for _, name := range profileBuckets {
		m.set("self_pct."+name, "%", shares[name])
	}
	m.set("trace.profile_coverage_pct", "%", coverage)
	rep.detail["profile_uncovered_pct"] = map[string]float64{"bench": shares["bench"], "other": shares["other"]}

	m.set("synth.build_ms", "ms/phase", median(buildMs))
	m.set("core.compress_ms", "ms/phase", median(compressMs))
	m.set("host.ref_ms", "ms", phA.refMedianMs())
	m.set("host.user_minstr_per_s", "Minstr/s", phA.rawMinstrPerS())
	m.set("trace.overhead_pct", "%", 100*(ratio(phA.minstrPerRefS(cfg.RefMs), phB.minstrPerRefS(cfg.RefMs))-1))
	kinstr := float64(b.allocInstrs) / 1000
	m.set("cpu.allocs_per_kinstr", "count/kinstr", ratio(float64(b.allocs), kinstr))
	m.set("cpu.alloc_bytes_per_kinstr", "B/kinstr", ratio(float64(b.allocBytes), kinstr))
	m.set("gc.cycles", "count/pass", ratio(float64(b.gcCycles), float64(phA.passes)))

	st := b.tr.selfTimes()
	var runInstrs, functInstrs, sampledInstrs, steps, detailedInstrs, exceptions float64
	var ckptBytes, ckpts, ciMax float64
	nativeRun := map[string]time.Duration{}
	var decompExtra time.Duration
	for _, pass := range phB.results {
		for i, r := range pass {
			o := b.ops[i]
			switch o.kind {
			case kDetailed, kObserved:
				runInstrs += float64(r.allInstrs)
				if o.kind == kDetailed && o.img.native != o.img && r.stats != nil {
					key := fmt.Sprintf("%s/%d", o.img.native.name, o.kb)
					if _, ok := nativeRun[key]; !ok {
						_, d, err := runDetailed(o.img.native, o.kb, nil)
						if err != nil {
							return err
						}
						nativeRun[key] = d
					}
					decompExtra += r.runDur - nativeRun[key]
					exceptions += float64(r.stats.Exceptions)
				}
			case kLockstep:
				steps += float64(o.img.instrs)
			case kFunct:
				functInstrs += float64(r.allInstrs)
				if r.allInstrs > 0 {
					ckptBytes += float64(r.ckptBytes)
					ckpts++
				}
			case kSampled:
				sampledInstrs += float64(r.userInstrs)
				if s := r.sample; s != nil {
					detailedInstrs += float64(s.DetailedInstrs)
					ciMax = math.Max(ciMax, 100*(s.CPIHigh-s.CPILow)/2/s.CPI)
				}
			}
		}
	}
	nsPer := func(span string, n float64) float64 { return ratio(float64(st[span].self.Nanoseconds()), n) }
	m.set("cpu.load_ms", "ms/op", st["cpu.load"].meanMs())
	m.set("cpu.run_ns_per_instr", "ns/instr", nsPer("cpu.run", runInstrs))
	m.set("decomp.host_us_per_exception", "us/exc", ratio(decompExtra.Seconds()*1e6, exceptions))
	m.set("fastpath.funct_ns_per_instr", "ns/instr", nsPer("fastpath.functional", functInstrs))
	m.set("fastpath.sampled_ns_per_instr", "ns/instr", nsPer("fastpath.sampled", sampledInstrs))
	m.set("fastpath.detailed_share", "ratio", ratio(detailedInstrs, sampledInstrs))
	m.set("fastpath.checkpoint_ms", "ms/ckpt", st["fastpath.checkpoint"].meanMs())
	m.set("fastpath.checkpoint_kb", "KiB/ckpt", ratio(ckptBytes/1024, ckpts))
	m.set("fastpath.ci_halfwidth_pct", "%", ciMax)
	m.set("profile.verify_ms", "ms/op", st["profile.verify"].meanMs())
	m.set("verify.lockstep_ns_per_step", "ns/step", nsPer("verify.lockstep", steps))

	profX, telX, err := b.observerOverheads()
	if err != nil {
		return err
	}
	m.set("profile.overhead_x", "x", profX)
	m.set("telemetry.overhead_x", "x", telX)
	rep.detail["passes"] = phA.passes + phB.passes
	return nil
}

// observerOverheads times, for every image an observed op runs, a plain
// detailed run, one with a profile.Recorder and one with a windowed
// telemetry collector, interleaved, and returns the observed runs' time
// over the plain runs' (0 when the workload has no observed ops).
func (b *bench) observerOverheads() (profX, telX float64, err error) {
	var plain, rec, tel time.Duration
	for _, o := range b.ops {
		if o.kind != kObserved {
			continue
		}
		_, d, err := runDetailed(o.img, o.kb, nil)
		if err != nil {
			return 0, 0, err
		}
		plain += d
		var r *profile.Recorder
		_, d, err = runDetailed(o.img, o.kb, func(c *cpu.CPU) { r = profile.NewRecorder(o.img.im); r.Attach(c) })
		if err == nil {
			err = r.Verify()
		}
		if err != nil {
			return 0, 0, err
		}
		rec += d
		col := telemetry.New()
		col.Windows = telemetry.NewWindowSampler(0)
		_, d, err = runDetailed(o.img, o.kb, col.Attach)
		if err == nil {
			err = col.Windows.Verify()
		}
		if err != nil {
			return 0, 0, err
		}
		tel += d
	}
	return ratio(float64(rec), float64(plain)), ratio(float64(tel), float64(plain)), nil
}
