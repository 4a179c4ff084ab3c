package perfwatch

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fastpath"
)

// FastMetrics is the sampled/functional axis of a sample, collected
// when Runner.Fast is set. The sampled numbers are deterministic (the
// sampling schedule is systematic and both engines are deterministic);
// the functional wall time is a host metric. Entries written before
// the fast tier existed simply lack the stanza (`fast` is omitempty),
// so old trajectory rows stay bit-identical.
type FastMetrics struct {
	// SampledCPI is the fastpath.Sampled estimate with its 95% bounds.
	SampledCPI     float64 `json:"sampled_cpi"`
	SampledCPILow  float64 `json:"sampled_cpi_low"`
	SampledCPIHigh float64 `json:"sampled_cpi_high"`
	// SampledEstCycles is the estimated whole-run cycle count; the gate
	// compares it against the exact Sim.Cycles of the same sample.
	SampledEstCycles uint64 `json:"sampled_est_cycles"`
	// SampledDriftPct is the recorded estimate error vs the exact run,
	// in percent (CheckFast recomputes it live rather than trusting it).
	SampledDriftPct float64 `json:"sampled_drift_pct"`
	Windows         int     `json:"windows"`
	Bursts          int     `json:"bursts"`
	DetailedInstrs  uint64  `json:"detailed_instrs"`
	TotalInstrs     uint64  `json:"total_instrs"`

	// FunctWallNs is the median over Runner.Reps purely functional runs
	// of the run alone (no image lookup, cpu.New or Load); FunctInstrs
	// counts one run's user + handler instructions. FunctNsPerInstr is
	// their ratio, comparable with Host.NsPerInstr for the fast tier's
	// host-speedup claim.
	FunctWallNs     int64   `json:"funct_wall_ns"`
	FunctInstrs     uint64  `json:"funct_instrs"`
	FunctNsPerInstr float64 `json:"funct_ns_per_instr"`
}

// SampledDrift returns the live estimate error of the sampled axis vs
// the exact simulated cycles, in percent.
func (s Sample) SampledDrift() (float64, bool) {
	if s.Fast == nil || s.Sim.Cycles == 0 {
		return 0, false
	}
	return 100 * (float64(s.Fast.SampledEstCycles) - float64(s.Sim.Cycles)) / float64(s.Sim.Cycles), true
}

// FunctSpeedup returns the fast-forward host speedup: how many times
// faster the functional engine gets through this workload's program
// than the detailed engine (median detailed wall, which also holds
// cpu.New and Load, over median functional run wall). Wall-for-wall is
// the honest metric — a per-instruction ratio would hide the functional
// engine's other advantage, that it executes each compressed line's
// handler burst once instead of once per I-cache re-fault.
func (s Sample) FunctSpeedup() (float64, bool) {
	if s.Fast == nil || s.Fast.FunctWallNs == 0 || s.Host.MedianNs == 0 {
		return 0, false
	}
	return float64(s.Host.MedianNs) / float64(s.Fast.FunctWallNs), true
}

// measureFast fills the fast-tier axis for one workload: one sampled
// run (deterministic, drift-checked against the exact axis) and one
// timed functional run (host speed).
func (r *Runner) measureFast(w Workload, opts core.Options, sim SimMetrics) (*FastMetrics, error) {
	res, err := r.suite.SampledRun(w.Bench, opts, w.CacheKB, fastpath.SampleConfig{})
	if err != nil {
		return nil, fmt.Errorf("perfwatch: %s: %v", w.Name, err)
	}
	var walls []int64
	var fstats cpu.FunctStats
	for rep := 0; rep < max(r.Reps, 1); rep++ {
		st, wall, err := r.suite.FunctionalRun(w.Bench, opts, w.CacheKB)
		if err != nil {
			return nil, fmt.Errorf("perfwatch: %s: %v", w.Name, err)
		}
		if rep > 0 && st != fstats {
			return nil, fmt.Errorf("perfwatch: %s: functional counters diverged between repetitions (simulator nondeterminism): %+v vs %+v",
				w.Name, fstats, st)
		}
		fstats = st
		walls = append(walls, wall.Nanoseconds())
	}
	f := &FastMetrics{
		SampledCPI:       res.CPI,
		SampledCPILow:    res.CPILow,
		SampledCPIHigh:   res.CPIHigh,
		SampledEstCycles: res.EstCycles,
		Windows:          res.Windows,
		Bursts:           res.Bursts,
		DetailedInstrs:   res.DetailedInstrs,
		TotalInstrs:      res.TotalInstrs,
		FunctWallNs:      medianInt64(walls),
		FunctInstrs:      fstats.Instrs + fstats.HandlerInstrs,
	}
	if f.FunctInstrs > 0 {
		f.FunctNsPerInstr = float64(f.FunctWallNs) / float64(f.FunctInstrs)
	}
	if sim.Cycles > 0 {
		f.SampledDriftPct = 100 * (float64(res.EstCycles) - float64(sim.Cycles)) / float64(sim.Cycles)
	}
	return f, nil
}

// CheckFast gates the sampled axis of one entry: every sample must
// carry fast-tier metrics whose estimated cycles are within limitPct of
// the exact simulated cycles. Unlike GatePolicy.Check this needs no
// baseline — the exact axis of the same entry is the ground truth.
func CheckFast(e Entry, limitPct float64) []Violation {
	var vs []Violation
	for _, s := range e.Samples {
		drift, ok := s.SampledDrift()
		if !ok {
			vs = append(vs, Violation{Workload: s.Workload,
				Reason: "no sampled axis in entry (measure with `ccbench run -sampled` / `ccbench gate -sampled`)"})
			continue
		}
		if math.Abs(drift) > limitPct {
			vs = append(vs, Violation{Workload: s.Workload,
				Reason: fmt.Sprintf("sampled CPI drifted %+.3f%% from exact (est %d vs %d cycles, limit ±%.2f%%)",
					drift, s.Fast.SampledEstCycles, s.Sim.Cycles, limitPct)})
		}
	}
	return vs
}

// PerturbSampled multiplies every sampled cycle estimate in the entry
// by factor — the fast-tier analogue of PerturbSim, used by the gate's
// must-fail self-test (`ccbench gate -sampled -perturb-sampled 1.05`)
// to prove the drift gate actually fires. It mutates the entry in
// place.
func PerturbSampled(e *Entry, factor float64) {
	for i := range e.Samples {
		f := e.Samples[i].Fast
		if f == nil {
			continue
		}
		f.SampledEstCycles = uint64(float64(f.SampledEstCycles) * factor)
		f.SampledCPI *= factor
		f.SampledCPILow *= factor
		f.SampledCPIHigh *= factor
	}
}
