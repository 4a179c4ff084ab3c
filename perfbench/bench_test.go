package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// small returns a fast configuration: short programs, the minimum
// number of passes, two set-up phases.
func small(t *testing.T, workload string) config {
	return config{Workload: workload, Scale: 0.05, RefMs: 60, SetupReps: 2, MinPasses: 2, WorkDir: t.TempDir()}
}

func mustRun(t *testing.T, cfg config) *report {
	t.Helper()
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Workload, err)
	}
	return rep
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Command   []string                     `json:"command"`
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []specMetric                 `json:"end_to_end"`
	PerLayer  []specMetric                 `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts the emitted metrics are exactly the declared set,
// with the declared units.
func checkMetrics(t *testing.T, workload string, got metrics, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", workload, len(got), len(want))
	}
	for _, w := range want {
		g, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, w.Name)
		} else if g.Unit != w.Unit {
			t.Errorf("%s: metric %s unit %q, declared %q", workload, w.Name, g.Unit, w.Unit)
		}
	}
}

// TestWorkloadsMatchSpec runs every workload untraced: the op list runs
// without failure and emits exactly the declared end-to-end metrics,
// none of them zero.
func TestWorkloadsMatchSpec(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		rep := mustRun(t, small(t, w))
		if !rep.out.Correct || rep.out.Failed != 0 {
			t.Errorf("%s: %d of %d failed: %v", w, rep.out.Failed, rep.out.Attempted, rep.errs)
		}
		checkMetrics(t, w, rep.out.Metrics, s.EndToEnd)
		for name, m := range rep.out.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v", w, name, m.Value)
			}
		}
	}
}

// TestTracedRun checks every workload's traced run: the declared
// per-layer metrics, the span reconciliation (a failure would count as
// a failed op), the CPU-profile coverage, and that each layer metric is
// measured on the workloads whose layers it describes.
func TestTracedRun(t *testing.T) {
	s := readSpec(t)
	nonzero := map[string][]string{
		"native-detailed":     {"cpu.run_ns_per_instr", "cpu.allocs_per_kinstr", "self_pct.cpu.fetch", "sim.imiss_native_per_kinstr"},
		"compressed-detailed": {"core.compress_ms", "decomp.host_us_per_exception", "slowdown.geomean", "code_ratio.geomean", "sim.exceptions_per_kinstr"},
		"fast-tier":           {"fastpath.funct_ns_per_instr", "fastpath.sampled_ns_per_instr", "fastpath.checkpoint_ms", "fastpath.checkpoint_kb", "fastpath.detailed_share", "self_pct.cpu.funct", "sampled_err_pct.max"},
		"observed":            {"profile.overhead_x", "telemetry.overhead_x", "profile.verify_ms", "verify.lockstep_ns_per_step", "self_pct.profile", "self_pct.verify"},
	}
	for _, w := range workloadNames {
		cfg := small(t, w)
		cfg.Trace = true
		// Long enough ops, and enough of them, that runtime scheduler
		// samples and sampling noise do not decide the coverage.
		cfg.Scale, cfg.Seconds = 0.3, 4
		rep := mustRun(t, cfg)
		if rep.out.Failed != 0 {
			t.Errorf("%s: %d of %d failed: %v", w, rep.out.Failed, rep.out.Attempted, rep.errs)
		}
		m := rep.out.Metrics
		checkMetrics(t, w, m, s.PerLayer)
		if c := m["trace.profile_coverage_pct"].Value; c < 90 {
			t.Errorf("%s: CPU-profile buckets cover %.1f%% of samples, want >= 90%% (uncovered: %v)",
				w, c, rep.detail["profile_uncovered_pct"])
		}
		for _, name := range append(nonzero[w], "synth.build_ms", "cpu.load_ms", "host.ref_ms", "host.user_minstr_per_s", "sim_cpi") {
			if m[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, m[name].Value)
			}
		}
	}
}

// TestMustFail proves the failure accounting has teeth: ops that must
// fail are counted against the attempts, and the run still completes
// every attempt instead of aborting.
func TestMustFail(t *testing.T) {
	// The functional engine's negative control corrupts handler stores,
	// so functional ops on compressed images must fail.
	cfg := small(t, "fast-tier")
	cfg.FunctionalBreak = true
	rep := mustRun(t, cfg)
	ops := 48
	if want := (cfg.SetupReps - 1) + 1 + cfg.MinPasses*ops; rep.out.Attempted != want {
		t.Errorf("functional break: %d attempts, want %d", rep.out.Attempted, want)
	}
	if rep.out.Correct || rep.out.Failed == 0 {
		t.Errorf("functional break: %d of %d failed, want > 0", rep.out.Failed, rep.out.Attempted)
	}
	for _, e := range rep.errs {
		if strings.Contains(e, "/native/") {
			t.Errorf("functional break failed a native op: %s", e)
		}
	}

	// A wrong expected output fails every op of the first benchmark:
	// cc1 at 4K (the warm-up op too) and at 16K, in both passes.
	cfg = small(t, "native-detailed")
	cfg.WrongOutput = true
	rep = mustRun(t, cfg)
	if rep.out.Failed != 5 || rep.out.Attempted != 1+1+2*16 || rep.out.Correct {
		t.Errorf("wrong output: %d of %d failed, want 5 of 34: %v", rep.out.Failed, rep.out.Attempted, rep.errs)
	}
}

// TestBenchCICrossCheck runs the benchmark's op code at BENCH_ci.json's
// recorded scale on the configurations both measure: cycles and
// instruction counts must equal the recorded entry, so the benchmark and
// ccbench measure one simulator.
func TestBenchCICrossCheck(t *testing.T) {
	data, err := os.ReadFile("../BENCH_ci.json")
	if err != nil {
		t.Fatal(err)
	}
	var traj struct {
		Entries []struct {
			Fingerprint struct {
				Scale float64 `json:"scale"`
			} `json:"fingerprint"`
			Samples []struct {
				Workload string `json:"workload"`
				Sim      struct {
					Cycles        uint64 `json:"cycles"`
					Instrs        uint64 `json:"instrs"`
					HandlerInstrs uint64 `json:"handler_instrs"`
				} `json:"sim"`
			} `json:"samples"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatal(err)
	}
	last := traj.Entries[len(traj.Entries)-1]
	cfg := small(t, "compressed-detailed")
	cfg.Scale = last.Fingerprint.Scale
	images, _, err := setup(cfg, &tracer{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*image{}
	for _, img := range images {
		byName[img.name] = img
	}
	b := &bench{cfg: cfg, images: images}
	configs := map[string]struct {
		image string
		kb    int
	}{
		"go/native/16K":      {"go/native", 16},
		"go/dict+rf/16K":     {"go/dict+rf", 16},
		"go/codepack+rf/16K": {"go/codepack+rf", 16},
		"pegwit/dict+rf/4K":  {"pegwit/dict+rf", 4},
		"vortex/native/16K":  {"vortex/native", 16},
	}
	found := 0
	for _, s := range last.Samples {
		c, ok := configs[s.Workload]
		if !ok {
			continue
		}
		found++
		res, err := b.run(&op{kind: kDetailed, img: byName[c.image], kb: c.kb})
		if err != nil {
			t.Fatalf("%s: %v", s.Workload, err)
		}
		got := res.stats
		if got.Cycles != s.Sim.Cycles || got.Instrs != s.Sim.Instrs || got.HandlerInstrs != s.Sim.HandlerInstrs {
			t.Errorf("%s: cycles/instrs/handler %d/%d/%d, BENCH_ci.json %d/%d/%d", s.Workload,
				got.Cycles, got.Instrs, got.HandlerInstrs, s.Sim.Cycles, s.Sim.Instrs, s.Sim.HandlerInstrs)
		}
	}
	if found != len(configs) {
		t.Fatalf("BENCH_ci.json has %d of the %d cross-checked configurations", found, len(configs))
	}
}

// TestSeed shows the workload seed reaches the programs: another seed
// builds different images with the same op count and no failures, and
// the same seed rebuilds identical images and identical exact metrics.
func TestSeed(t *testing.T) {
	base := mustRun(t, small(t, "compressed-detailed"))
	cfg := small(t, "compressed-detailed")
	cfg.Seed = 7
	other := mustRun(t, cfg)
	again := mustRun(t, cfg)
	if base.detail["image_digest"] == other.detail["image_digest"] {
		t.Error("seed 7 built the same images as seed 0")
	}
	if other.detail["seed"] != int64(7) {
		t.Errorf("seed not recorded: %v", other.detail["seed"])
	}
	if base.detail["ops"] != other.detail["ops"] || other.out.Failed != 0 || base.out.Failed != 0 {
		t.Errorf("ops %v vs %v, failures %d and %d", base.detail["ops"], other.detail["ops"], base.out.Failed, other.out.Failed)
	}
	for _, k := range []string{"image_digest", "sim_cpi", "slowdown.geomean", "code_ratio.geomean"} {
		if other.detail[k] != again.detail[k] {
			t.Errorf("%s differs between two runs of seed 7: %v vs %v", k, other.detail[k], again.detail[k])
		}
	}
}

// TestDeterminismCheck shows a simulated result that differs between
// passes is counted as a failure.
func TestDeterminismCheck(t *testing.T) {
	cfg := small(t, "native-detailed")
	b := &bench{cfg: cfg}
	images, _, err := setup(cfg, &tracer{})
	if err != nil {
		t.Fatal(err)
	}
	b.images = images
	b.ops = buildOps(cfg.Workload, images)
	o := b.ops[0]
	if _, _, err := b.stepOp(o); err != nil {
		t.Fatal(err)
	}
	s := *o.first.stats
	s.Cycles++
	o.first.sig = s
	if _, _, err := b.stepOp(o); err == nil || !strings.Contains(err.Error(), "differ between passes") {
		t.Fatalf("perturbed first pass not detected: %v", err)
	}
}

// TestProfileBuckets pins the CPU-profile bucketing rules.
func TestProfileBuckets(t *testing.T) {
	f := func(name, file string) frame { return frame{name: name, file: file} }
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{f("repro/internal/cpu.(*CPU).fetch", "/r/internal/cpu/exec.go")}, "cpu.fetch"},
		{[]frame{f("repro/internal/cpu.decodeLine", "/r/internal/cpu/predecode.go")}, "cpu.fetch"},
		{[]frame{f("repro/internal/cpu.(*CPU).execute", "/r/internal/cpu/exec.go")}, "cpu.execute"},
		{[]frame{f("repro/internal/cpu.(*CPU).frun", "/r/internal/cpu/funct.go")}, "cpu.funct"},
		{[]frame{f("repro/internal/cpu.(*CPU).RunDetailedWindow", "/r/internal/cpu/funct.go")}, "cpu.execute"},
		{[]frame{f("runtime.memmove", ""), f("repro/internal/mem.(*Memory).Read", "")}, "mem"},
		{[]frame{f("runtime.nextFreeFast", ""), f("runtime.mallocgc", ""), f("repro/internal/cpu.decodeLine", "")}, "runtime.alloc_gc"},
		{[]frame{f("runtime.scanobject", ""), f("runtime.gcBgMarkWorker", "")}, "runtime.alloc_gc"},
		{[]frame{f("runtime.lock2", ""), f("runtime.findRunnable", ""), f("runtime.schedule", "")}, "runtime.alloc_gc"},
		{[]frame{f("encoding/json.(*encodeState).marshal", ""), f("repro/internal/fastpath.(*Checkpoint).Save", "")}, "fastpath"},
		{[]frame{f("main.refKernel", "")}, "harness"},
		{[]frame{f("runtime.sweepone", ""), f("runtime.GC", ""), f("main.(*bench).measure", "")}, "harness"},
		{[]frame{f("runtime.memequal", ""), f("main.(*bench).run.func9", "")}, "bench"},
	}
	for _, c := range cases {
		if got := sampleBucket(c.stack); got != c.want {
			t.Errorf("%v: bucket %s, want %s", c.stack, got, c.want)
		}
	}
}
