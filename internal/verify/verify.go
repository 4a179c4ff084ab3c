// Package verify provides differential verification of program images:
// two images (typically a native program and its compressed rewrite) run
// in lockstep, and the first architectural divergence — a differing
// committed instruction, register state, exit code or output — is
// reported with full context. Decompression is meant to be invisible to
// the program, so any divergence is a bug in a compressor, a handler or
// the re-layout.
package verify

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/program"
)

// Divergence describes the first difference between two runs.
type Divergence struct {
	Step   uint64 // committed user-instruction index
	What   string // human-readable description
	PCA    uint32
	PCB    uint32
	InstrA uint32
	InstrB uint32
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("verify: step %d: %s (A: %08x %s | B: %08x %s)",
		d.Step, d.What,
		d.PCA, isa.Disassemble(d.PCA, d.InstrA),
		d.PCB, isa.Disassemble(d.PCB, d.InstrB))
}

// machine wraps a CPU stepping only committed user instructions.
type machine struct {
	c    *cpu.CPU
	im   *program.Image
	out  bytes.Buffer // everything the program wrote via syscalls
	last struct {
		pc, instr uint32
	}
	pending bool
}

func newMachine(im *program.Image, cfg cpu.Config) (*machine, error) {
	c, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	m := &machine{c: c, im: im}
	c.Out = &m.out
	c.Trace = func(pc, instr uint32, handler bool) {
		if !handler {
			m.last.pc, m.last.instr = pc, instr
			m.pending = true
		}
	}
	if err := c.Load(im); err != nil {
		return nil, err
	}
	return m, nil
}

// stepUser advances until one user instruction commits (running any
// handler activity silently) and reports whether the machine halted.
func (m *machine) stepUser() (bool, error) {
	m.pending = false
	for !m.pending {
		if halted, _ := m.c.Halted(); halted {
			return true, nil
		}
		if err := m.c.Step(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// procRelative maps a PC to (procedure name, offset) so that images with
// different layouts can be compared position-independently.
func procRelative(im *program.Image, pc uint32) (string, uint32) {
	if p := im.ProcAt(pc); p != nil {
		return p.Name, pc - p.Addr
	}
	return "", pc
}

// Lockstep runs both images until completion or maxSteps committed user
// instructions, comparing at every step:
//
//   - the executed instruction encoding (relocation-bearing instructions
//     are compared by procedure-relative position instead), and
//   - the full general-purpose register state, masking registers that
//     legitimately hold code addresses ($ra, and the operands of jr/jalr)
//     and the OS-reserved $k0/$k1 the handlers use as scratch;
//
// and, once both halt, the exit codes and everything each program
// printed. It returns nil when the runs are equivalent, or the first
// Divergence.
func Lockstep(a, b *program.Image, cfg cpu.Config, maxSteps uint64) error {
	ma, err := newMachine(a, cfg)
	if err != nil {
		return err
	}
	mb, err := newMachine(b, cfg)
	if err != nil {
		return err
	}
	for step := uint64(0); maxSteps == 0 || step < maxSteps; step++ {
		haltedA, errA := ma.stepUser()
		haltedB, errB := mb.stepUser()
		if errA != nil || errB != nil {
			return fmt.Errorf("verify: step %d: A err=%v, B err=%v", step, errA, errB)
		}
		if haltedA || haltedB {
			if haltedA != haltedB {
				return divergence(step, ma, mb, "one machine halted before the other")
			}
			return compareExit(step, ma, mb)
		}
		d := compare(step, ma, mb)
		if d != nil {
			return d
		}
	}
	return nil
}

// divergence reports what differs at step, with both machines' last
// committed instruction as context.
func divergence(step uint64, ma, mb *machine, what string) *Divergence {
	return &Divergence{Step: step, What: what,
		PCA: ma.last.pc, PCB: mb.last.pc, InstrA: ma.last.instr, InstrB: mb.last.instr}
}

// compareExit checks exit code and captured output once both machines
// have halted.
func compareExit(step uint64, ma, mb *machine) error {
	_, codeA := ma.c.Halted()
	_, codeB := mb.c.Halted()
	if codeA != codeB {
		return divergence(step, ma, mb, fmt.Sprintf("exit codes differ: %d vs %d", codeA, codeB))
	}
	if !bytes.Equal(ma.out.Bytes(), mb.out.Bytes()) {
		return divergence(step, ma, mb, fmt.Sprintf("outputs differ: %q vs %q", ma.out.String(), mb.out.String()))
	}
	return nil
}

func compare(step uint64, ma, mb *machine) *Divergence {
	div := func(what string) *Divergence { return divergence(step, ma, mb, what) }
	// Compare instruction identity: same encoding, or (for instructions
	// that embed code addresses) the same procedure-relative position.
	if ma.last.instr != mb.last.instr {
		pa, oa := procRelative(ma.im, ma.last.pc)
		pb, ob := procRelative(mb.im, mb.last.pc)
		if pa != pb || oa != ob {
			return div("different instruction position")
		}
		// Same position: the encodings may differ only via relocation
		// fields (j/jal target, lui/ori address halves).
		if isa.Op(ma.last.instr) != isa.Op(mb.last.instr) {
			return div("different opcode at same position")
		}
	} else {
		pa, oa := procRelative(ma.im, ma.last.pc)
		pb, ob := procRelative(mb.im, mb.last.pc)
		if pa != pb || oa != ob {
			return div("same instruction at different position")
		}
	}
	// Compare register state, masking code-address-bearing registers.
	for r := 0; r < isa.NumRegs; r++ {
		if r == isa.RegRA || r == isa.RegT9 {
			continue // hold code addresses: layout-dependent by design
		}
		if r == isa.RegK0 || r == isa.RegK1 {
			// OS-reserved: the single-register-file handlers use them as
			// exception-level scratch, which user code may never observe.
			// The static analyzer (internal/analysis) exempts them for
			// the same reason.
			continue
		}
		va, vb := ma.c.Reg(r), mb.c.Reg(r)
		if va == vb {
			continue
		}
		// Values that are code addresses in their own images are
		// compared procedure-relatively.
		na, oa := procRelative(ma.im, va)
		nb, ob := procRelative(mb.im, vb)
		if na != "" && na == nb && oa == ob {
			continue
		}
		return div(fmt.Sprintf("register %s differs: %#x vs %#x", isa.RegName(r), va, vb))
	}
	return nil
}

// Equivalent is a convenience wrapper: it reports a readable multi-line
// verdict instead of an error.
func Equivalent(a, b *program.Image, cfg cpu.Config, maxSteps uint64) (bool, string) {
	if err := Lockstep(a, b, cfg, maxSteps); err != nil {
		var sb strings.Builder
		sb.WriteString("NOT equivalent:\n  ")
		sb.WriteString(err.Error())
		return false, sb.String()
	}
	return true, "equivalent"
}
