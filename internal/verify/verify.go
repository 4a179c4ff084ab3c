// Package verify provides differential verification of program images:
// two images (typically a native program and its compressed rewrite) run
// in lockstep, and the first architectural divergence — a differing
// committed instruction, register state, exit code or output — is
// reported with full context. Decompression is meant to be invisible to
// the program, so any divergence is a bug in a compressor, a handler or
// the re-layout.
//
// Lockstep is the two-image case of LockstepMulti: both run the same
// engine (multi.go), with the same per-step comparison.
package verify

import (
	"errors"
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

// Lockstep runs both images until completion or maxSteps committed user
// instructions, comparing at every step:
//
//   - the executed instruction encoding (relocation-bearing instructions
//     are compared by procedure-relative position instead),
//   - the full general-purpose register state, masking registers that
//     legitimately hold code addresses ($ra, and the operands of jr/jalr)
//     and the OS-reserved $k0/$k1 the handlers use as scratch, and
//   - HI/LO;
//
// and, once both halt, the exit codes and everything each program
// printed. It returns nil when the runs are equivalent or maxSteps ran
// out first, the first Divergence, or a *MachineError when a machine
// faulted (including a handler that never returns control).
func Lockstep(a, b *program.Image, cfg cpu.Config, maxSteps uint64) error {
	_, err := LockstepMulti([]*program.Image{a, b}, MultiConfig{CPU: cfg, MaxSteps: maxSteps})
	var d *MultiDivergence
	switch {
	case errors.Is(err, errBudget):
		return nil
	case errors.As(err, &d):
		return &Divergence{Step: d.Step, What: d.What,
			PCA: d.PCA, PCB: d.PCB, InstrA: d.InstrA, InstrB: d.InstrB}
	}
	return err
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
