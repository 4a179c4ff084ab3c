package profile

import (
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/program"
)

// Recorder attributes every cpu.Stats delta to its source site through
// the composable commit-trace hook (cpu.AttachTrace). It is a pure
// observer: attaching one changes no simulated state and no cycle count.
//
// Attribution rule: a user commit's delta is charged to the line and
// procedure of its own PC; a handler commit's delta is charged to the
// line and procedure of the *faulting* PC (the EPC, C0 register 4),
// which the exception machinery sets on entry and iret leaves intact.
// Because the decompression exception's entry flush is charged between
// commits — and therefore lands in the first handler commit's delta —
// every cycle of a miss's service ends up on the compressed line that
// missed, never on the handler RAM.
//
// Commits are charged a run at a time. A run is a maximal sequence of
// consecutive commits whose target (PC, or EPC for handler commits)
// lies in one range: one I-cache line intersected with one procedure
// or with the gap between two procedures. Every commit of a run lands
// in the same line and procedure buckets, so the run's Stats delta is
// diffed once, when it closes, instead of once per commit; the buckets
// come out identical to per-commit charging.
type Recorder struct {
	im        *program.Image
	c         *cpu.CPU
	lineBytes uint32

	lines map[uint32]*Cost

	// procCosts has one bucket per im.Procs entry, in table order, plus a
	// trailing bucket for commits outside every procedure.
	procCosts []Cost
	lastProc  int // procedure-index memo

	// The open run covers targets in [runLo, runLo+runLen), charged to
	// runLine (the bucket of line runLineAddr) and procCosts[runProc].
	// runLine outlives its run as the line memo for the next one.
	open        bool
	runLo       uint32
	runLen      uint32
	runLineAddr uint32
	runLine     *Cost
	runProc     int
	err         error // first commit that fell outside its run

	committed uint64
	prev      cpu.Stats
	prevReads uint64
	prevBytes uint64
}

// NewRecorder returns a recorder attributing to im's procedure table.
func NewRecorder(im *program.Image) *Recorder {
	return &Recorder{
		im:        im,
		lines:     make(map[uint32]*Cost),
		procCosts: make([]Cost, len(im.Procs)+1),
	}
}

// Attach hooks the recorder into the CPU's commit tracer. Call before
// cpu.Load/Run; composes with previously attached tracers.
func (r *Recorder) Attach(c *cpu.CPU) {
	r.c = c
	r.lineBytes = uint32(c.Cfg.ICache.LineBytes)
	c.AttachTrace(func(pc, instr uint32, handler bool) { r.observe(pc, handler) })
}

// observe extends the open run by one commit and closes it when the
// next commit cannot belong to it. The lookahead is exact: the tracer
// runs after the PC update, charges made between commits (fetch stalls,
// the exception entry flush) belong to the next commit, and an
// exception latches EPC equal to the PC it faulted on. An iret always
// closes the run, so a run holds at most one exception-service
// interval and its ExcCyclesTotal delta is that interval's latency.
func (r *Recorder) observe(pc uint32, handler bool) {
	c := r.c
	target := pc
	if handler {
		target = c.C0(4) // EPC: the faulting fetch this handler services
	}
	if !r.open {
		r.openRun(target)
	} else if target-r.runLo >= r.runLen && r.err == nil {
		// Only a handler rewriting EPC mid-service gets here.
		r.err = fmt.Errorf("profile: commit at %#x charges %#x, outside its run [%#x, %#x)",
			pc, target, r.runLo, uint64(r.runLo)+uint64(r.runLen))
	}
	r.committed++
	inHandler := c.InHandler()
	next := c.PC()
	if inHandler {
		next = c.C0(4)
	}
	if handler && !inHandler || next-r.runLo >= r.runLen {
		r.closeRun()
	}
}

// openRun starts a run for target: its range is target's I-cache line
// intersected with its procedure or inter-procedure gap.
func (r *Recorder) openRun(target uint32) {
	la := target &^ (r.lineBytes - 1)
	if r.runLine == nil || la != r.runLineAddr {
		lc := r.lines[la]
		if lc == nil {
			lc = new(Cost)
			r.lines[la] = lc
		}
		r.runLineAddr, r.runLine = la, lc
	}
	lo, end := uint64(la), uint64(la)+uint64(r.lineBytes)
	procs := r.im.Procs
	r.runProc = r.procIndex(target)
	if i := r.runProc; i < len(procs) {
		lo = max(lo, uint64(procs[i].Addr))
		end = min(end, uint64(procs[i].Addr)+uint64(procs[i].Size))
	} else {
		// Outside the table: the gap between the neighbouring
		// procedures, which are sorted and disjoint.
		j := sort.Search(len(procs), func(j int) bool { return procs[j].Addr > target })
		if j > 0 {
			lo = max(lo, uint64(procs[j-1].Addr)+uint64(procs[j-1].Size))
		}
		if j < len(procs) {
			end = min(end, uint64(procs[j].Addr))
		}
	}
	r.runLo, r.runLen = uint32(lo), uint32(end-lo)
	r.open = true
}

// closeRun charges the open run's Stats delta to its line and procedure
// buckets. A no-op when no run is open.
func (r *Recorder) closeRun() {
	if !r.open {
		return
	}
	r.open = false
	s := &r.c.Stats
	reads, bytes := r.c.Mem.Reads, r.c.Mem.BytesRead
	d := Cost{
		Cycles:          s.Cycles - r.prev.Cycles,
		Instrs:          s.Instrs - r.prev.Instrs,
		HandlerInstrs:   s.HandlerInstrs - r.prev.HandlerInstrs,
		IMissNative:     s.IMissNative - r.prev.IMissNative,
		IMissCompressed: s.IMissCompressed - r.prev.IMissCompressed,
		Exceptions:      s.Exceptions - r.prev.Exceptions,
		FetchStalls:     s.FetchStalls - r.prev.FetchStalls,
		LoadStalls:      s.LoadStalls - r.prev.LoadStalls,
		LoadUseStalls:   s.LoadUseStalls - r.prev.LoadUseStalls,
		ExcCyclesTotal:  s.ExcCyclesTotal - r.prev.ExcCyclesTotal,
		BusReads:        reads - r.prevReads,
		BusBytes:        bytes - r.prevBytes,
	}
	for k := range d.CPIStack {
		d.CPIStack[k] = s.CPIStack[k] - r.prev.CPIStack[k]
	}
	// A run closes no more than one service interval (observe), so its
	// ExcCyclesTotal delta *is* that interval's latency; merging deltas
	// by max reproduces the whole-run ExcCyclesMax exactly.
	d.ExcCyclesMax = d.ExcCyclesTotal
	r.runLine.Add(d)
	r.procCosts[r.runProc].Add(d)
	r.prev = *s
	r.prevReads, r.prevBytes = reads, bytes
}

// procIndex maps an address to its procedure bucket (len(im.Procs) for
// outside-table addresses), memoizing the last hit: runs cluster
// inside one procedure, so the common case is a bounds check.
func (r *Recorder) procIndex(addr uint32) int {
	procs := r.im.Procs
	if i := r.lastProc; i < len(procs) && procs[i].Contains(addr) {
		return i
	}
	i := sort.Search(len(procs), func(i int) bool {
		return procs[i].Addr+procs[i].Size > addr
	})
	if i < len(procs) && procs[i].Contains(addr) {
		r.lastProc = i
		return i
	}
	return len(procs)
}

// Committed returns the number of commits the recorder observed.
func (r *Recorder) Committed() uint64 { return r.committed }

// Profile materializes the attribution into the serializable artifact:
// nonzero lines ascending by address, the full procedure table in
// address order (plus the outside bucket when nonzero), and the
// whole-run total. Caller stamps identity/manifest.
func (r *Recorder) Profile() *Profile {
	r.closeRun()
	p := &Profile{
		SchemaVersion: ArtifactSchema,
		LineBytes:     int(r.lineBytes),
		Total:         r.total(),
	}
	addrs := make([]uint32, 0, len(r.lines))
	for a := range r.lines {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		if c := *r.lines[a]; !c.IsZero() {
			p.Lines = append(p.Lines, LineCost{Addr: a, Cost: c})
		}
	}
	for i, pr := range r.im.Procs {
		p.Procs = append(p.Procs, ProcCost{Name: pr.Name, Addr: pr.Addr, Cost: r.procCosts[i]})
	}
	if out := r.procCosts[len(r.im.Procs)]; !out.IsZero() {
		p.Procs = append(p.Procs, ProcCost{Name: OutsideName, Cost: out})
	}
	return p
}

// total snapshots the whole-run cost from the machine's own counters
// (not from the attribution buckets — Verify compares the two).
func (r *Recorder) total() Cost {
	s := r.c.Stats
	return Cost{
		Cycles:          s.Cycles,
		Instrs:          s.Instrs,
		HandlerInstrs:   s.HandlerInstrs,
		IMissNative:     s.IMissNative,
		IMissCompressed: s.IMissCompressed,
		Exceptions:      s.Exceptions,
		FetchStalls:     s.FetchStalls,
		LoadStalls:      s.LoadStalls,
		LoadUseStalls:   s.LoadUseStalls,
		ExcCyclesTotal:  s.ExcCyclesTotal,
		ExcCyclesMax:    s.ExcCyclesMax,
		CPIStack:        s.CPIStack,
		BusReads:        r.c.Mem.Reads,
		BusBytes:        r.c.Mem.BytesRead,
	}
}

// Verify enforces the hard attribution invariant: the component-wise
// sum of all line buckets — and, independently, all procedure buckets —
// must be bit-identical to the whole-run cpu.Stats (and bus counters)
// of the attached machine. Any drift means a commit escaped attribution
// or a counter moved outside the commit hook's view — a simulator bug,
// never a property of the program. statscomplete proves this sums every
// cpu.Stats counter, so a new counter must be wired into Cost before
// cccheck passes.
//
//cccheck:stats(sum)
func (r *Recorder) Verify() error {
	if r.c == nil {
		return fmt.Errorf("profile: recorder never attached")
	}
	if r.err != nil {
		return r.err
	}
	r.closeRun()
	s := r.c.Stats
	var lineSum Cost
	for _, lc := range r.lines {
		lineSum.Add(*lc)
	}
	mismatch := func(axis, field string, got, want uint64) error {
		return fmt.Errorf("profile: attribution invariant: %s: %s buckets sum to %d, whole run has %d (diff %+d)",
			field, axis, got, want, int64(got)-int64(want))
	}
	check := func(axis string, sum Cost) error {
		switch {
		case sum.Cycles != s.Cycles:
			return mismatch(axis, "cycles", sum.Cycles, s.Cycles)
		case sum.Instrs != s.Instrs:
			return mismatch(axis, "instrs", sum.Instrs, s.Instrs)
		case sum.HandlerInstrs != s.HandlerInstrs:
			return mismatch(axis, "handler_instrs", sum.HandlerInstrs, s.HandlerInstrs)
		case sum.IMissNative != s.IMissNative:
			return mismatch(axis, "imiss_native", sum.IMissNative, s.IMissNative)
		case sum.IMissCompressed != s.IMissCompressed:
			return mismatch(axis, "imiss_compressed", sum.IMissCompressed, s.IMissCompressed)
		case sum.Exceptions != s.Exceptions:
			return mismatch(axis, "exceptions", sum.Exceptions, s.Exceptions)
		case sum.FetchStalls != s.FetchStalls:
			return mismatch(axis, "fetch_stalls", sum.FetchStalls, s.FetchStalls)
		case sum.LoadStalls != s.LoadStalls:
			return mismatch(axis, "load_stalls", sum.LoadStalls, s.LoadStalls)
		case sum.LoadUseStalls != s.LoadUseStalls:
			return mismatch(axis, "load_use_stalls", sum.LoadUseStalls, s.LoadUseStalls)
		case sum.ExcCyclesTotal != s.ExcCyclesTotal:
			return mismatch(axis, "exc_cycles_total", sum.ExcCyclesTotal, s.ExcCyclesTotal)
		case sum.ExcCyclesMax != s.ExcCyclesMax:
			return mismatch(axis, "exc_cycles_max", sum.ExcCyclesMax, s.ExcCyclesMax)
		case sum.BusReads != r.c.Mem.Reads:
			return mismatch(axis, "bus_reads", sum.BusReads, r.c.Mem.Reads)
		case sum.BusBytes != r.c.Mem.BytesRead:
			return mismatch(axis, "bus_bytes", sum.BusBytes, r.c.Mem.BytesRead)
		}
		for k := range sum.CPIStack {
			if sum.CPIStack[k] != s.CPIStack[k] {
				return mismatch(axis, "cpi_stack."+cpu.CycleKind(k).Key(), sum.CPIStack[k], s.CPIStack[k])
			}
		}
		return nil
	}
	if err := check("line", lineSum); err != nil {
		return err
	}
	var procSum Cost
	for i := range r.procCosts {
		procSum.Add(r.procCosts[i])
	}
	if err := check("procedure", procSum); err != nil {
		return err
	}
	// Commit coverage: the hook delivered exactly the commits the machine
	// retired.
	if r.committed != s.Instrs+s.HandlerInstrs {
		return fmt.Errorf("profile: recorder saw %d commits, machine retired %d",
			r.committed, s.Instrs+s.HandlerInstrs)
	}
	return nil
}
