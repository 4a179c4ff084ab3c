package verify

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/synth"
)

func buildPair(t *testing.T, opts core.Options) (*program.Image, *program.Image) {
	t.Helper()
	p, _ := synth.ByName("pegwit")
	im, err := synth.Build(p.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compress(im, opts)
	if err != nil {
		t.Fatal(err)
	}
	return im, res.Image
}

func cfg() cpu.Config {
	c := cpu.DefaultConfig()
	c.MaxInstr = 100_000_000
	return c
}

func TestLockstepEquivalentSchemes(t *testing.T) {
	for _, opts := range []core.Options{
		{Scheme: program.SchemeDict, ShadowRF: true},
		{Scheme: program.SchemeCodePack, ShadowRF: true},
		{Scheme: program.SchemeProcDict, ShadowRF: true},
	} {
		nat, comp := buildPair(t, opts)
		if err := Lockstep(nat, comp, cfg(), 0); err != nil {
			t.Fatalf("%s: %v", opts.Scheme, err)
		}
	}
}

func TestLockstepWithBoundedSteps(t *testing.T) {
	nat, comp := buildPair(t, core.Options{Scheme: program.SchemeDict, ShadowRF: true})
	if err := Lockstep(nat, comp, cfg(), 5000); err != nil {
		t.Fatal(err)
	}
}

func TestLockstepDetectsCorruptedDictionary(t *testing.T) {
	nat, comp := buildPair(t, core.Options{Scheme: program.SchemeDict, ShadowRF: true})
	// Corrupt one dictionary entry: the decompressor will materialise a
	// wrong instruction and the lockstep must catch it.
	dict := comp.Segment(program.SegDict)
	dict.SetWord(dict.Base+40, dict.Word(dict.Base+40)^0x00210000)
	err := Lockstep(nat, comp, cfg(), 0)
	if err == nil {
		t.Fatal("corruption not detected")
	}
	var d *Divergence
	if de, ok := err.(*Divergence); ok {
		d = de
	}
	if d == nil {
		// A corrupted instruction may also make the simulator fault —
		// that is an acceptable detection too, but it must not be nil.
		if !strings.Contains(err.Error(), "verify:") {
			t.Fatalf("unexpected error shape: %v", err)
		}
		return
	}
	if d.What == "" {
		t.Fatal("empty divergence description")
	}
}

func TestLockstepDetectsClobberingHandler(t *testing.T) {
	// Break a handler's register restore: nop out the `lw $t1, -4($sp)`
	// epilogue load of the single-RF dictionary handler, so every
	// invocation leaves $t1 corrupted. Lockstep must pinpoint it.
	nat, comp := buildPair(t, core.Options{Scheme: program.SchemeDict})
	h := comp.Segment(program.SegDecompressor)
	const lwT1 = 0x8FA9FFFC // lw $t1, -4($sp)
	patched := false
	for a := h.Base; a+4 <= h.Base+uint32(len(h.Data)); a += 4 {
		if h.Word(a) == lwT1 {
			h.SetWord(a, 0) // nop
			patched = true
		}
	}
	if !patched {
		t.Fatal("restore instruction not found in handler")
	}
	err := Lockstep(nat, comp, cfg(), 0)
	if err == nil {
		t.Fatal("register clobbering not detected")
	}
	if !strings.Contains(err.Error(), "register") && !strings.Contains(err.Error(), "verify") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestEquivalentWrapper(t *testing.T) {
	nat, comp := buildPair(t, core.Options{Scheme: program.SchemeDict, ShadowRF: true})
	ok, msg := Equivalent(nat, comp, cfg(), 0)
	if !ok || msg != "equivalent" {
		t.Fatalf("ok=%v msg=%q", ok, msg)
	}
	dict := comp.Segment(program.SegDict)
	dict.SetWord(dict.Base+16, 0)
	ok, msg = Equivalent(nat, comp, cfg(), 0)
	if ok || !strings.Contains(msg, "NOT equivalent") {
		t.Fatalf("ok=%v msg=%q", ok, msg)
	}
}

func TestSelfLockstep(t *testing.T) {
	p, _ := synth.ByName("mpeg2enc")
	im, err := synth.Build(p.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if err := Lockstep(im, im, cfg(), 0); err != nil {
		t.Fatalf("image must be equivalent to itself: %v", err)
	}
}

func assemble(t *testing.T, src string) *program.Image {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// mustDiverge requires Lockstep to report a *Divergence whose
// description contains want.
func mustDiverge(t *testing.T, a, b *program.Image, want string) {
	t.Helper()
	err := Lockstep(a, b, cfg(), 0)
	var d *Divergence
	if !errors.As(err, &d) {
		t.Fatalf("want a divergence, got %v", err)
	}
	if !strings.Contains(d.What, want) {
		t.Fatalf("divergence %q does not mention %q", d.What, want)
	}
}

const exitSrc = `
        .text
        .proc main
main:   ori   $a0, $zero, CODE
        ori   $v0, $zero, 10
        syscall
        .endp
`

// TestLockstepDetectsExitCode: two programs differing only in their exit
// code are not equivalent.
func TestLockstepDetectsExitCode(t *testing.T) {
	a := assemble(t, strings.Replace(exitSrc, "CODE", "3", 1))
	b := assemble(t, strings.Replace(exitSrc, "CODE", "4", 1))
	mustDiverge(t, a, b, "")
}

// TestLockstepComparesExitCodeAtHalt exits with a code address, which
// the per-step register comparison deliberately reads
// procedure-relatively: the two layouts agree on every step, so only
// the final exit-code comparison can tell them apart.
func TestLockstepComparesExitCodeAtHalt(t *testing.T) {
	const body = `
        .proc main
main:   la    $a0, f
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc f
f:      jr    $ra
        .endp
`
	a := assemble(t, "        .text\n"+body)
	b := assemble(t, `
        .text
        .proc pad
pad:    jr    $ra
        .endp
        .entry main
`+body)
	mustDiverge(t, a, b, "exit codes differ")
}

// TestLockstepComparesOutput: two programs differing in one printed
// character — held in data, so no register ever differs — are not
// equivalent.
func TestLockstepComparesOutput(t *testing.T) {
	const src = `
        .data
msg:    .asciiz "MSG"
        .text
        .proc main
main:   la    $a0, msg
        ori   $v0, $zero, 4
        syscall
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
`
	a := assemble(t, strings.Replace(src, "MSG", "hello", 1))
	b := assemble(t, strings.Replace(src, "MSG", "hellp", 1))
	mustDiverge(t, a, b, "outputs differ")
	if err := Lockstep(a, a, cfg(), 0); err != nil {
		t.Fatalf("identical output reported as divergent: %v", err)
	}
}
