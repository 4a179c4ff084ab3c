package verify

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
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

// TestLockstepComparesHiLo: mult and multu of a negative operand leave
// the same LO but different HI. Nothing reads HI afterwards, so
// registers, output and exit code agree, and both encodings are SPECIAL:
// only the per-step HI/LO comparison tells the programs apart.
func TestLockstepComparesHiLo(t *testing.T) {
	const src = `
        .text
        .proc main
main:   addiu $t0, $zero, -1
        ori   $t1, $zero, 2
        MUL   $t0, $t1
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
`
	a := assemble(t, strings.Replace(src, "MUL", "mult", 1))
	b := assemble(t, strings.Replace(src, "MUL", "multu", 1))
	mustDiverge(t, a, b, "HI/LO differ: 0xffffffff/0xfffffffe vs 0x1/0xfffffffe")
	if err := Lockstep(a, a, cfg(), 0); err != nil {
		t.Fatalf("identical HI/LO reported as divergent: %v", err)
	}
}

// padded prefixes body with a procedure that never runs, so every
// procedure of body lands at a different address than in "\t.text\n"+body.
func padded(body string) string {
	return `
        .text
        .proc pad
pad:    jr    $ra
        .endp
        .entry main
` + body
}

// TestLockstepCompareFallback pins what the per-step compare reports
// once its equality-first checks fail, through both entry points: a
// differing value register is named with both values at the step it was
// written; a register holding the same procedure-relative code address
// under two layouts, the masked $ra/$t9/$k0/$k1, and a step that moves
// into the next procedure of one layout only, are not differences; the
// same instruction at the same offset of another procedure is.
func TestLockstepCompareFallback(t *testing.T) {
	const codeAddr = `
        .proc main
main:   la    $t0, f
        ori   $t1, $zero, V
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc f
f:      jr    $ra
        .endp
`
	const masked = `
        .text
        .proc main
main:   ori   $ra, $zero, V
        ori   $t9, $zero, V
        ori   $k0, $zero, V
        ori   $k1, $zero, V
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
`
	const call = `
        .text
        .proc main
main:   jal   V
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc f
f:      ori   $t0, $zero, 1
        jr    $ra
        .endp
        .proc g
g:      ori   $t0, $zero, 1
        jr    $ra
        .endp
`
	// tail runs f, which jumps straight to g: where g directly follows
	// f, g's first step is one past the end of the procedure the last
	// step ran in.
	const f, g = `
        .proc f
f:      ori   $t1, $zero, 2
        j     g
        .endp
`, `
        .proc g
g:      ori   $t0, $zero, 1
        jr    $ra
        .endp
`
	const tail = `
        .text
        .proc main
main:   jal   f
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
`
	v := func(src, val string) string { return strings.ReplaceAll(src, "V", val) }
	for _, tc := range []struct {
		name string
		a, b string
		step uint64 // of the divergence, when want is set
		want string // exact divergence text; "" = equivalent
	}{
		{"value register", "\t.text\n" + v(codeAddr, "5"), "\t.text\n" + v(codeAddr, "6"),
			2, "register $t1 differs: 0x5 vs 0x6"},
		{"value register after code address", "\t.text\n" + v(codeAddr, "5"), padded(v(codeAddr, "6")),
			2, "register $t1 differs: 0x5 vs 0x6"},
		{"code address under two layouts", "\t.text\n" + v(codeAddr, "5"), padded(v(codeAddr, "5")), 0, ""},
		{"masked registers", v(masked, "1"), v(masked, "2"), 0, ""},
		{"same instruction in another procedure", v(call, "f"), v(call, "g"),
			1, "same instruction at different position"},
		{"adjacent procedures in another order", tail + f + g, tail + g + f, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := assemble(t, tc.a), assemble(t, tc.b)
			errL := Lockstep(a, b, cfg(), 0)
			_, errM := LockstepMulti([]*program.Image{a, b}, MultiConfig{CPU: cfg()})
			if tc.want == "" {
				if errL != nil || errM != nil {
					t.Fatalf("want equivalent, got Lockstep: %v, LockstepMulti: %v", errL, errM)
				}
				return
			}
			var d *Divergence
			if !errors.As(errL, &d) || d.What != tc.want || d.Step != tc.step {
				t.Fatalf("Lockstep: got %v, want %q at step %d", errL, tc.want, tc.step)
			}
			var md *MultiDivergence
			if !errors.As(errM, &md) || md.What != tc.want || md.Step != tc.step || md.Img != 1 {
				t.Fatalf("LockstepMulti: got %v, want image 1 %q at step %d", errM, tc.want, tc.step)
			}
		})
	}
}

// TestSameCheckedMatchesMask: the block equality compareStep takes first
// sees a change in exactly the registers outside unchecked.
func TestSameCheckedMatchesMask(t *testing.T) {
	var a [isa.NumRegs]uint32
	for r := range a {
		b := a
		b[r] = 1
		if got, want := sameChecked(&a, &b), unchecked>>r&1 != 0; got != want {
			t.Errorf("%s: sameChecked = %v, want %v", isa.RegName(r), got, want)
		}
	}
}
