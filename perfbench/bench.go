package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// config is one benchmark invocation.
type config struct {
	Workload  string
	Seed      int64   // offsets every synth.Profile.Seed; 0 = the registry images
	Seconds   float64 // minimum timed measurement per phase
	Trace     bool
	RefMs     float64 // R0: the reference kernel time one reference-second assumes
	Scale     float64 // dynamic length of every synthetic benchmark
	SetupReps int     // repeated set-up phases; setup_s is their median
	MinPasses int     // timed passes over the op list, at least
	WorkDir   string  // checkpoint files go here

	// Negative controls for the failure accounting (tests only).
	FunctionalBreak bool // corrupt the functional engine's handler stores
	WrongOutput     bool // expect a wrong output for one image
}

// Workloads, in the order BENCHMARK.json lists them.
var workloadNames = []string{"native-detailed", "compressed-detailed", "fast-tier", "observed"}

// observedScale shortens the observed workload's programs: its ops cost
// two to three times a plain run, and halving them keeps a pass near the
// length of the other workloads' passes.
const observedScale = 0.5

// variant is one image flavour of a benchmark.
type variant struct {
	label  string
	scheme program.Scheme
	rf     bool
}

var (
	vNative     = variant{label: "native"}
	vDictRF     = variant{"dict+rf", program.SchemeDict, true}
	vCodePackRF = variant{"codepack+rf", program.SchemeCodePack, true}
	vLZ         = variant{"lz", program.Scheme("lz"), false}
	vLZRF       = variant{"lz+rf", program.Scheme("lz"), true}
)

// variants returns the compressed images a workload needs per benchmark.
func variants(workload, bench string) []variant {
	switch workload {
	case "compressed-detailed":
		vs := []variant{vDictRF, vCodePackRF, vLZ}
		if bench == "pegwit" {
			vs = append(vs, vLZRF)
		}
		return vs
	case "fast-tier":
		return []variant{vDictRF, vCodePackRF}
	case "observed":
		return []variant{vDictRF}
	}
	return nil
}

// image is a built program plus its reference outputs.
type image struct {
	name   string // bench/variant
	bench  string
	im     *program.Image
	native *image // the native counterpart (itself for native images)
	stored int    // bytes the code occupies (compressed images)
	orig   int    // bytes of native .text
	out    string // reference program output
	instrs uint64 // reference user instruction count
}

type opKind int

const (
	kDetailed opKind = iota
	kObserved
	kLockstep
	kFunct
	kSampled
)

// op is one closed-loop request: cpu.New → Load → run → check.
type op struct {
	name  string
	kind  opKind
	img   *image
	other *image // lockstep partner
	kb    int

	exact *cpu.Stats // untimed detailed reference (slowdown / sampled error)
	first *result    // first timed pass, for the determinism check
}

// result is what an op produced.
type result struct {
	userInstrs uint64 // simulated user instructions, counted for throughput
	allInstrs  uint64 // user + handler instructions simulated
	stats      *cpu.Stats
	sample     *fastpath.SampleResult
	ckptBytes  int64
	runDur     time.Duration // the detailed engine's Run alone
	sig        any           // comparable determinism signature
}

// bench is one workload's state inside a run.
type bench struct {
	cfg    config
	images []*image
	ops    []*op
	digest string // sha256 over every program.Save encoding
	tr     tracer

	measureAllocs bool
	allocs        uint64
	allocBytes    uint64
	allocInstrs   uint64
	gcCycles      uint32
}

func machine(kb int, maxInstr uint64) cpu.Config {
	c := cpu.DefaultConfig()
	c.ICache.SizeBytes = kb * 1024
	c.MaxInstr = maxInstr
	return c
}

// setup builds every image of the workload, computes the native
// reference outputs and returns the image digest. tr records the
// per-layer spans (synth.build, core.compress, reference).
func setup(cfg config, tr *tracer) ([]*image, string, error) {
	var images []*image
	h := sha256.New()
	scale := cfg.Scale
	if cfg.Workload == "observed" {
		scale *= observedScale
	}
	for _, p := range synth.Benchmarks() {
		p.Seed += cfg.Seed
		p = p.Scale(scale)
		var im *program.Image
		if err := tr.do("synth.build", func() (err error) {
			im, err = synth.Build(p)
			return err
		}); err != nil {
			return nil, "", fmt.Errorf("synth %s: %v", p.Name, err)
		}
		nat := &image{name: p.Name + "/native", bench: p.Name, im: im}
		nat.native = nat
		if err := tr.do("reference", func() error { return reference(nat) }); err != nil {
			return nil, "", err
		}
		images = append(images, nat)
		for _, v := range variants(cfg.Workload, p.Name) {
			var res *core.Result
			if err := tr.do("core.compress", func() (err error) {
				res, err = core.Compress(im, core.Options{Scheme: v.scheme, ShadowRF: v.rf})
				return err
			}); err != nil {
				return nil, "", fmt.Errorf("compress %s/%s: %v", p.Name, v.label, err)
			}
			images = append(images, &image{name: p.Name + "/" + v.label, bench: p.Name, im: res.Image,
				native: nat, stored: res.StoredSize, orig: res.OriginalSize, out: nat.out, instrs: nat.instrs})
		}
	}
	for _, img := range images {
		if err := program.Save(h, img.im); err != nil {
			return nil, "", err
		}
	}
	return images, hex.EncodeToString(h.Sum(nil)), nil
}

// reference runs the native image on the functional engine: its output
// and user instruction count are what every op must reproduce.
func reference(img *image) error {
	c, err := cpu.New(machine(16, 0))
	if err != nil {
		return err
	}
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(img.im); err != nil {
		return err
	}
	code, err := fastpath.Functional(c)
	if err != nil {
		return fmt.Errorf("reference %s: %v", img.name, err)
	}
	if code != 0 {
		return fmt.Errorf("reference %s: exit code %d", img.name, code)
	}
	img.out, img.instrs = out.String(), c.FStats.Instrs
	return nil
}

// buildOps lays out the workload's op list over the built images.
func buildOps(workload string, images []*image) []*op {
	by := map[string]*image{}
	var benches []string
	for _, img := range images {
		by[img.name] = img
		if img.native == img {
			benches = append(benches, img.bench)
		}
	}
	var ops []*op
	add := func(kind opKind, name string, kb int, other string) {
		o := &op{kind: kind, img: by[name], kb: kb, other: by[other]}
		o.name = fmt.Sprintf("%s/%dK/%s", name, kb, [...]string{"detailed", "observed", "lockstep", "funct", "sampled"}[kind])
		ops = append(ops, o)
	}
	switch workload {
	case "native-detailed":
		for _, kb := range []int{4, 16} {
			for _, b := range benches {
				add(kDetailed, b+"/native", kb, "")
			}
		}
	case "compressed-detailed":
		for _, v := range []variant{vDictRF, vCodePackRF, vLZ} {
			for _, b := range benches {
				add(kDetailed, b+"/"+v.label, 16, "")
			}
		}
		add(kDetailed, "pegwit/dict+rf", 4, "")
		add(kDetailed, "pegwit/lz+rf", 4, "")
	case "fast-tier":
		for _, v := range []variant{vNative, vDictRF, vCodePackRF} {
			for _, b := range benches {
				add(kFunct, b+"/"+v.label, 16, "")
				add(kSampled, b+"/"+v.label, 16, "")
			}
		}
	case "observed":
		for _, b := range benches {
			add(kObserved, b+"/native", 16, "")
			add(kObserved, b+"/dict+rf", 16, "")
			add(kLockstep, b+"/native", 16, b+"/dict+rf")
		}
	}
	return ops
}

// maxInstr bounds a run of img well above its honest length, so a
// broken engine fails fast instead of spinning.
func maxInstr(img *image) uint64 { return 64*img.instrs + 1_000_000 }

// runDetailed runs img on the detailed engine with no observer; it is
// the untimed exact reference and the traced plain/observer baselines.
// It returns the stats and the time Run took.
func runDetailed(img *image, kb int, attach func(*cpu.CPU)) (cpu.Stats, time.Duration, error) {
	c, err := cpu.New(machine(kb, maxInstr(img)))
	if err != nil {
		return cpu.Stats{}, 0, err
	}
	var out bytes.Buffer
	c.Out = &out
	if attach != nil {
		attach(c)
	}
	if err := c.Load(img.im); err != nil {
		return cpu.Stats{}, 0, err
	}
	start := time.Now()
	code, err := c.Run()
	dur := time.Since(start)
	if err == nil && (code != 0 || out.String() != img.out) {
		err = fmt.Errorf("%s @%dK: exit %d, output mismatch %v", img.name, kb, code, out.String() != img.out)
	}
	return c.Stats, dur, err
}

// exactReferences runs, untimed, the detailed references the exact
// metrics need: native cycles beside every compressed detailed op
// (slowdown) and the exact cycles of every sampled op (sampled error).
func (b *bench) exactReferences() error {
	memo := map[string]*cpu.Stats{}
	for _, o := range b.ops {
		var ref *image
		switch {
		case o.kind == kDetailed && o.img.native != o.img:
			ref = o.img.native
		case o.kind == kSampled:
			ref = o.img
		default:
			continue
		}
		key := fmt.Sprintf("%s/%d", ref.name, o.kb)
		if memo[key] == nil {
			s, _, err := runDetailed(ref, o.kb, nil)
			if err != nil {
				return fmt.Errorf("exact reference %s: %v", key, err)
			}
			memo[key] = &s
		}
		o.exact = memo[key]
	}
	return nil
}

func (b *bench) machineFor(o *op) cpu.Config {
	c := machine(o.kb, maxInstr(o.img))
	c.FunctionalBreak = b.cfg.FunctionalBreak
	return c
}

// run executes one op and checks everything it produced.
func (b *bench) run(o *op) (res result, err error) {
	tr := &b.tr
	var c *cpu.CPU
	var out bytes.Buffer
	var rec *profile.Recorder
	var col *telemetry.Collector
	load := func(im *program.Image) error {
		return tr.do("cpu.load", func() (err error) {
			if c, err = cpu.New(b.machineFor(o)); err != nil {
				return err
			}
			c.Out = &out
			if o.kind == kObserved {
				rec = profile.NewRecorder(im)
				rec.Attach(c)
				col = telemetry.New()
				col.Windows = telemetry.NewWindowSampler(0)
				col.Attach(c)
			}
			return c.Load(im)
		})
	}
	var ms0 runtime.MemStats
	startAllocs := func() {
		if b.measureAllocs {
			runtime.ReadMemStats(&ms0)
		}
	}
	stopAllocs := func(instrs uint64) {
		if b.measureAllocs {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			b.allocs += ms1.Mallocs - ms0.Mallocs
			b.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			b.allocInstrs += instrs
			b.gcCycles += ms1.NumGC - ms0.NumGC
		}
	}
	var code int32
	switch o.kind {
	case kDetailed, kObserved:
		if err := load(o.img.im); err != nil {
			return res, err
		}
		startAllocs()
		t0 := time.Now()
		if err := tr.do("cpu.run", func() (err error) { code, err = c.Run(); return err }); err != nil {
			return res, err
		}
		runDur := time.Since(t0)
		s := c.Stats
		stopAllocs(s.Instrs + s.HandlerInstrs)
		res = result{userInstrs: s.Instrs, allInstrs: s.Instrs + s.HandlerInstrs, stats: &s, runDur: runDur}
		if o.kind == kObserved {
			if err := tr.do("profile.verify", rec.Verify); err != nil {
				return res, err
			}
			if err := tr.do("telemetry.verify", col.Windows.Verify); err != nil {
				return res, err
			}
			if col.CommittedUser != s.Instrs || col.CommittedHandler != s.HandlerInstrs || rec.Committed() != s.Instrs+s.HandlerInstrs {
				return res, fmt.Errorf("observer commit counts %d/%d/%d disagree with stats %d/%d",
					col.CommittedUser, col.CommittedHandler, rec.Committed(), s.Instrs, s.HandlerInstrs)
			}
			res.sig = [2]any{s, len(col.Windows.Records)}
		} else {
			res.sig = s
		}
	case kLockstep:
		startAllocs()
		if err := tr.do("verify.lockstep", func() error {
			return verify.Lockstep(o.img.im, o.other.im, b.machineFor(o), 0)
		}); err != nil {
			return res, err
		}
		stopAllocs(2 * o.img.instrs)
		// Both machines simulate the whole program; the lockstep itself
		// checks they agree at every user step.
		return result{userInstrs: 2 * o.img.instrs, allInstrs: 2 * o.img.instrs, sig: true}, nil
	case kFunct:
		if err := load(o.img.im); err != nil {
			return res, err
		}
		startAllocs()
		if err := tr.do("fastpath.functional", func() error {
			_, err := c.RunFunctionalFor(o.img.instrs / 2)
			return err
		}); err != nil {
			return res, err
		}
		mid := c.FStats
		path := filepath.Join(b.cfg.WorkDir, "checkpoint.json")
		if err := tr.do("fastpath.checkpoint", func() error {
			if err := fastpath.Capture(c, nil).Save(path); err != nil {
				return err
			}
			st, err := os.Stat(path)
			if err != nil {
				return err
			}
			res.ckptBytes = st.Size()
			ck, err := fastpath.Load(path)
			if err != nil {
				return err
			}
			c, err = ck.Apply()
			return err
		}); err != nil {
			return res, err
		}
		if c.FStats != mid {
			return res, fmt.Errorf("checkpoint lost functional counters: %+v, captured %+v", c.FStats, mid)
		}
		c.Out = &out
		if err := tr.do("fastpath.functional", func() (err error) { code, err = fastpath.Functional(c); return err }); err != nil {
			return res, err
		}
		f := c.FStats
		stopAllocs(f.Instrs + f.HandlerInstrs)
		res.userInstrs, res.allInstrs, res.sig = f.Instrs, f.Instrs+f.HandlerInstrs, [2]any{f, res.ckptBytes}
	case kSampled:
		if err := load(o.img.im); err != nil {
			return res, err
		}
		startAllocs()
		var sr *fastpath.SampleResult
		if err := tr.do("fastpath.sampled", func() (err error) {
			sr, err = fastpath.Sampled(c, fastpath.SampleConfig{})
			return err
		}); err != nil {
			return res, err
		}
		stopAllocs(sr.TotalInstrs)
		code = sr.ExitCode
		res = result{userInstrs: sr.TotalInstrs, allInstrs: sr.TotalInstrs, sample: sr, sig: *sr}
	}
	err = tr.do("check", func() error {
		if code != 0 {
			return fmt.Errorf("exit code %d", code)
		}
		want := o.img.out
		if b.cfg.WrongOutput && o.img.bench == b.images[0].bench {
			want += "!"
		}
		if out.String() != want {
			return fmt.Errorf("output %q, reference %q", out.String(), want)
		}
		if res.userInstrs != o.img.instrs {
			return fmt.Errorf("%d user instructions, reference %d", res.userInstrs, o.img.instrs)
		}
		return nil
	})
	return res, err
}

// stepOp runs one op as a traced root span and applies the determinism
// check against the op's first pass. It returns the op's wall time.
func (b *bench) stepOp(o *op) (time.Duration, result, error) {
	var res result
	dur, err := b.tr.root(o.name, func() (err error) {
		res, err = b.run(o)
		return err
	})
	if err == nil {
		if o.first == nil {
			o.first = &res
		} else if o.first.sig != res.sig {
			err = fmt.Errorf("simulated results differ between passes")
		}
	}
	if err != nil {
		err = fmt.Errorf("%s: %v", o.name, err)
	}
	return dur, res, err
}

// phase is the measurement of one timed loop.
type phase struct {
	passes    int
	attempted int
	errs      []string
	opTime    []time.Duration // per op, summed over passes
	userInstr []uint64        // per op, summed over passes
	refMs     []float64       // reference-kernel times
	wall      time.Duration
	results   [][]result // per pass, per op (failed ops hold a zero result)
}

// measure runs whole passes over the op list, each op preceded by a
// garbage collection and the reference kernel, until at least seconds
// have elapsed and at least minPasses passes are done.
func (b *bench) measure(seconds float64, minPasses int) *phase {
	ph := &phase{opTime: make([]time.Duration, len(b.ops)), userInstr: make([]uint64, len(b.ops))}
	start := time.Now()
	for ph.passes < minPasses || time.Since(start).Seconds() < seconds {
		pass := make([]result, len(b.ops))
		for i, o := range b.ops {
			runtime.GC() // every op starts from a collected heap
			ph.refMs = append(ph.refMs, ms(refKernel()))
			dur, res, err := b.stepOp(o)
			ph.attempted++
			if err != nil {
				ph.errs = append(ph.errs, err.Error())
				continue
			}
			pass[i] = res
			ph.opTime[i] += dur
			ph.userInstr[i] += res.userInstrs
		}
		ph.results = append(ph.results, pass)
		ph.passes++
	}
	ph.wall = time.Since(start)
	return ph
}

// refMedianMs is the median reference-kernel time of the phase.
func (ph *phase) refMedianMs() float64 { return median(ph.refMs) }

// rawMinstrPerS is the geometric mean over the ops of each op's
// simulated user instructions (millions) per host second. Every
// configuration counts equally: a sum over the ops would be dominated
// by the few handler-heavy ones, whose cost moves most with the seed.
func (ph *phase) rawMinstrPerS() float64 {
	var rates []float64
	for i, t := range ph.opTime {
		if t > 0 {
			rates = append(rates, float64(ph.userInstr[i])/1e6/t.Seconds())
		}
	}
	return geomean(rates)
}

// minstrPerRefS normalises raw throughput to reference-seconds: one
// host second counts as R0 / median(reference kernel time) of them.
func (ph *phase) minstrPerRefS(r0 float64) float64 {
	return ph.rawMinstrPerS() * ph.refMedianMs() / r0
}
