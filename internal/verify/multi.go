package verify

// The lockstep engine: run N images of the same program (native plus
// any number of compressed variants) simultaneously, comparing every
// committed user instruction of each variant against the reference
// (index 0). Lockstep is its two-image case; the differential
// co-simulation harness (internal/diffsim) uses it directly. Besides
// instructions and registers it:
//
//   - captures each machine's syscall output, so exit codes and output
//     are compared once all machines halt;
//   - compares the HI/LO registers (handlers never touch them);
//   - exposes an OnCommit hook observing *every* commit, including
//     handler instructions, for external oracles (swic content checks,
//     cycle accounting);
//   - guards against runaway handlers with a per-user-step handler
//     instruction budget.

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/program"
)

// MultiConfig configures LockstepMulti.
type MultiConfig struct {
	CPU      cpu.Config
	MaxSteps uint64 // committed user instructions; 0 = unlimited
	// MaxHandlerBurst caps handler instructions run for a single user
	// step (0 = 1<<20). A handler exceeding it is a failure, not a hang.
	MaxHandlerBurst uint64
	// OnCommit, when set, observes every committed instruction of every
	// machine (img is the image index, handler marks handler commits).
	// It runs after the instruction's architectural effects.
	OnCommit func(img int, c *cpu.CPU, pc, instr uint32, handler bool)
	// Attach, when set, runs once per machine after the lockstep trace
	// hook is installed and before the image loads — the point where
	// observers (telemetry window samplers) can compose onto c via
	// cpu.AttachTrace without being clobbered.
	Attach func(img int, c *cpu.CPU)
}

// MultiResult is the final state of one machine after LockstepMulti.
type MultiResult struct {
	Image    *program.Image
	Output   []byte // everything the program wrote via syscalls
	ExitCode int32
	Halted   bool
	Steps    uint64 // committed user instructions
	CPU      *cpu.CPU
}

// MultiDivergence reports the first difference between the reference
// machine (image 0) and machine Img.
type MultiDivergence struct {
	Img            int
	Step           uint64
	What           string
	PCA            uint32 // reference
	PCB            uint32 // diverging image
	InstrA, InstrB uint32
}

func (d *MultiDivergence) Error() string {
	return fmt.Sprintf("verify: image %d diverges at step %d: %s (ref: %08x %s | img%d: %08x %s)",
		d.Img, d.Step, d.What,
		d.PCA, isa.Disassemble(d.PCA, d.InstrA),
		d.Img, d.PCB, isa.Disassemble(d.PCB, d.InstrB))
}

// MachineError reports that one machine faulted (illegal instruction,
// handler runaway, simulator error) rather than diverging architecturally.
// Img 0 is the reference: a reference fault is an infrastructure problem,
// while a fault in a compressed image is itself a correctness finding (a
// broken handler typically faults before it diverges).
type MachineError struct {
	Img  int
	Step uint64
	Err  error
}

func (e *MachineError) Error() string {
	return fmt.Sprintf("verify: image %d: step %d: %v", e.Img, e.Step, e.Err)
}

func (e *MachineError) Unwrap() error { return e.Err }

// errBudget marks LockstepMulti's step-budget error; Lockstep treats it
// as "equivalent so far".
var errBudget = errors.New("exhausted before halt")

// machine is one CPU of a lockstep run, stepped one committed user
// instruction at a time, with its output captured.
type machine struct {
	c    *cpu.CPU
	im   *program.Image
	ids  map[string]int32 // procedure name -> identity, shared by every machine
	out  bytes.Buffer
	last struct {
		pc, instr uint32
	}
	pending      bool
	steps        uint64
	handlerBurst uint64
	// cur is the procedure the last committed PC fell in: consecutive
	// steps mostly stay inside one, so pcPos answers them without a
	// search.
	cur struct {
		addr, size uint32
		id         int32
	}
}

func newMachine(idx int, im *program.Image, ids map[string]int32, cfg *MultiConfig) (*machine, error) {
	c, err := cpu.New(cfg.CPU)
	if err != nil {
		return nil, err
	}
	m := &machine{c: c, im: im, ids: ids}
	c.Out = &m.out
	c.Trace = func(pc, instr uint32, handler bool) {
		if handler {
			m.handlerBurst++
		} else {
			m.last.pc, m.last.instr = pc, instr
			m.pending = true
		}
		if cfg.OnCommit != nil {
			cfg.OnCommit(idx, c, pc, instr, handler)
		}
	}
	if cfg.Attach != nil {
		cfg.Attach(idx, c)
	}
	if err := c.Load(im); err != nil {
		return nil, err
	}
	return m, nil
}

// stepUser advances until one user instruction commits, running handler
// activity silently but bounded.
func (m *machine) stepUser(maxBurst uint64) (halted bool, err error) {
	m.pending = false
	m.handlerBurst = 0
	for !m.pending {
		if h, _ := m.c.Halted(); h {
			return true, nil
		}
		if err := m.c.Step(); err != nil {
			return false, err
		}
		if m.handlerBurst > maxBurst {
			return false, fmt.Errorf("handler ran %d instructions without returning control (pc %#x)",
				m.handlerBurst, m.c.PC())
		}
	}
	m.steps++
	return false, nil
}

// locate maps addr to (procedure identity, offset) so that images with
// different layouts compare position-independently; outside every
// procedure it returns (-1, addr).
func (m *machine) locate(addr uint32) (int32, uint32) {
	if p := m.im.ProcAt(addr); p != nil {
		return m.ids[p.Name], addr - p.Addr
	}
	return -1, addr
}

// pcPos is locate of the last committed PC, memoised on its procedure.
func (m *machine) pcPos() (int32, uint32) {
	pc := m.last.pc
	if off := pc - m.cur.addr; off < m.cur.size {
		return m.cur.id, off
	}
	p := m.im.ProcAt(pc)
	if p == nil {
		return -1, pc
	}
	m.cur.addr, m.cur.size, m.cur.id = p.Addr, p.Size, m.ids[p.Name]
	return m.cur.id, pc - p.Addr
}

// LockstepMulti runs every image in lockstep against images[0] and
// returns the final machine states. A non-nil error is a
// *MultiDivergence (an architectural mismatch — a finding), a
// *MachineError (a machine faulted), or an error saying the step budget
// ran out before the reference halted.
func LockstepMulti(images []*program.Image, cfg MultiConfig) ([]*MultiResult, error) {
	if len(images) < 2 {
		return nil, fmt.Errorf("verify: LockstepMulti needs at least 2 images, got %d", len(images))
	}
	maxBurst := cfg.MaxHandlerBurst
	if maxBurst == 0 {
		maxBurst = 1 << 20
	}
	ids := map[string]int32{}
	for _, im := range images {
		for _, p := range im.Procs {
			if _, ok := ids[p.Name]; !ok {
				ids[p.Name] = int32(len(ids))
			}
		}
	}
	ms := make([]*machine, len(images))
	for i, im := range images {
		m, err := newMachine(i, im, ids, &cfg)
		if err != nil {
			return nil, fmt.Errorf("verify: image %d: %v", i, err)
		}
		ms[i] = m
	}
	results := func() []*MultiResult {
		out := make([]*MultiResult, len(ms))
		for i, m := range ms {
			halted, code := m.c.Halted()
			out[i] = &MultiResult{Image: m.im, Output: m.out.Bytes(),
				ExitCode: code, Halted: halted, Steps: m.steps, CPU: m.c}
		}
		return out
	}

	for step := uint64(0); cfg.MaxSteps == 0 || step < cfg.MaxSteps; step++ {
		haltedRef, err := ms[0].stepUser(maxBurst)
		if err != nil {
			return results(), &MachineError{Img: 0, Step: step, Err: err}
		}
		for i := 1; i < len(ms); i++ {
			halted, err := ms[i].stepUser(maxBurst)
			if err != nil {
				return results(), &MachineError{Img: i, Step: step, Err: err}
			}
			if halted != haltedRef {
				return results(), divergence(step, ms[0], ms[i], i, "one machine halted before the other")
			}
		}
		if haltedRef {
			// All machines halted on the same step: compare final state.
			for i := 1; i < len(ms); i++ {
				if d := compareFinal(step, ms[0], ms[i], i); d != nil {
					return results(), d
				}
			}
			return results(), nil
		}
		for i := 1; i < len(ms); i++ {
			if d := compareStep(step, ms[0], ms[i], i); d != nil {
				return results(), d
			}
		}
	}
	return results(), fmt.Errorf("verify: step budget %d %w", cfg.MaxSteps, errBudget)
}

// divergence reports what differs at step between the reference and
// machine idx, with both machines' last committed instruction as context.
func divergence(step uint64, ref, m *machine, idx int, what string) *MultiDivergence {
	return &MultiDivergence{Img: idx, Step: step, What: what,
		PCA: ref.last.pc, PCB: m.last.pc,
		InstrA: ref.last.instr, InstrB: m.last.instr}
}

// unchecked masks the registers compareStep leaves out: $ra and $t9
// hold code addresses, layout-dependent by design; $k0/$k1 are
// OS-reserved, the single-register-file handlers' exception-level
// scratch, which user code may never observe (the static analyzer,
// internal/analysis, exempts them for the same reason).
const unchecked = 1<<isa.RegRA | 1<<isa.RegT9 | 1<<isa.RegK0 | 1<<isa.RegK1

// sameChecked reports whether two register files agree on every
// register outside unchecked: $zero..$t8 and $gp..$fp, compared as two
// blocks.
func sameChecked(a, b *[isa.NumRegs]uint32) bool {
	return *(*[isa.RegT9]uint32)(a[:]) == *(*[isa.RegT9]uint32)(b[:]) &&
		*(*[isa.RegRA - isa.RegGP]uint32)(a[isa.RegGP:]) == *(*[isa.RegRA - isa.RegGP]uint32)(b[isa.RegGP:])
}

// compareStep checks instruction identity, register state and HI/LO of
// machine m against the reference. Both checks are equality-first: the
// procedure-relative reading runs only where plain equality fails.
func compareStep(step uint64, ref, m *machine, idx int) *MultiDivergence {
	// Instruction identity: the same encoding at the same
	// procedure-relative position or, for instructions that embed code
	// addresses (j/jal target, lui/ori address halves), the same opcode
	// there.
	pa, oa := ref.pcPos()
	pb, ob := m.pcPos()
	samePos := pa == pb && oa == ob
	if ref.last.instr != m.last.instr {
		if !samePos {
			return divergence(step, ref, m, idx, "different instruction position")
		}
		if isa.Op(ref.last.instr) != isa.Op(m.last.instr) {
			return divergence(step, ref, m, idx, "different opcode at same position")
		}
	} else if !samePos {
		return divergence(step, ref, m, idx, "same instruction at different position")
	}
	if ra, rb := ref.c.RegFile(), m.c.RegFile(); !sameChecked(ra, rb) {
		for r, va := range ra {
			vb := rb[r]
			if va == vb || unchecked>>r&1 != 0 {
				continue
			}
			// Values that are code addresses in their own images are
			// compared procedure-relatively.
			na, oa := ref.locate(va)
			nb, ob := m.locate(vb)
			if na >= 0 && na == nb && oa == ob {
				continue
			}
			return divergence(step, ref, m, idx, fmt.Sprintf("register %s differs: %#x vs %#x", isa.RegName(r), va, vb))
		}
	}
	hiA, loA := ref.c.HiLo()
	hiB, loB := m.c.HiLo()
	if hiA != hiB || loA != loB {
		return divergence(step, ref, m, idx, fmt.Sprintf("HI/LO differ: %#x/%#x vs %#x/%#x", hiA, loA, hiB, loB))
	}
	return nil
}

// compareFinal checks exit code and captured output once both machines
// have halted.
func compareFinal(step uint64, ref, m *machine, idx int) *MultiDivergence {
	_, codeA := ref.c.Halted()
	_, codeB := m.c.Halted()
	if codeA != codeB {
		return divergence(step, ref, m, idx, fmt.Sprintf("exit codes differ: %d vs %d", codeA, codeB))
	}
	if !bytes.Equal(ref.out.Bytes(), m.out.Bytes()) {
		return divergence(step, ref, m, idx, fmt.Sprintf("outputs differ: %q vs %q", ref.out.String(), m.out.String()))
	}
	return nil
}
