package cpu

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// exitWith wraps a fragment with an exit(code-in-$a0) epilogue.
func exitWith(body string) string {
	return ".text\n.proc main\nmain:\n" + body + `
        ori   $v0, $zero, 10
        syscall
        .endp
`
}

func TestMtc0Mfc0RoundTrip(t *testing.T) {
	_, code, _ := run(t, exitWith(`
        li    $t0, 0x12340000
        mtc0  $t0, $c0_dict
        mfc0  $t1, $c0_dict
        subu  $a0, $t1, $t0
`))
	if code != 0 {
		t.Fatalf("mtc0/mfc0 round trip failed: %d", code)
	}
}

func TestSltVariants(t *testing.T) {
	_, code, _ := run(t, exitWith(`
        li    $t0, -1
        ori   $t1, $zero, 1
        slt   $t2, $t0, $t1      # signed: -1 < 1 -> 1
        sltu  $t3, $t0, $t1      # unsigned: 0xFFFFFFFF < 1 -> 0
        slti  $t4, $t0, 0        # -1 < 0 -> 1
        sltiu $t5, $t1, 2        # 1 < 2 -> 1
        addu  $a0, $t2, $t4
        addu  $a0, $a0, $t5
        addiu $a0, $a0, -3       # expect 0
        addu  $a0, $a0, $t3      # plus 0
`))
	if code != 0 {
		t.Fatalf("slt semantics wrong: %d", code)
	}
}

func TestLogicalOps(t *testing.T) {
	_, code, _ := run(t, exitWith(`
        li    $t0, 0xF0F0F0F0
        li    $t1, 0x0F0F0F0F
        or    $t2, $t0, $t1      # 0xFFFFFFFF
        and   $t3, $t0, $t1      # 0
        nor   $t4, $t0, $t1      # 0
        xor   $t5, $t0, $t1      # 0xFFFFFFFF
        xor   $t6, $t2, $t5      # 0
        addu  $a0, $t3, $t4
        addu  $a0, $a0, $t6
`))
	if code != 0 {
		t.Fatalf("logical ops wrong: %d", code)
	}
}

func TestMultuDivu(t *testing.T) {
	_, code, out := run(t, exitWith(`
        li    $t0, 0x80000000
        ori   $t1, $zero, 2
        multu $t0, $t1
        mfhi  $a0                # expect 1
        ori   $v0, $zero, 1
        syscall
        li    $t2, 100
        ori   $t3, $zero, 8
        divu  $t2, $t3
        mflo  $a0                # 12
        ori   $v0, $zero, 1
        syscall
        mfhi  $a0                # 4
        ori   $v0, $zero, 1
        syscall
        move  $a0, $zero
`))
	if code != 0 || out != "1124" {
		t.Fatalf("multu/divu wrong: code=%d out=%q", code, out)
	}
}

func TestDivByZeroIsQuiet(t *testing.T) {
	// MIPS leaves HI/LO undefined on divide-by-zero; we define them as
	// unchanged, and the program must not trap.
	_, code, _ := run(t, exitWith(`
        ori   $t0, $zero, 7
        move  $t1, $zero
        div   $t0, $t1
        divu  $t0, $t1
        move  $a0, $zero
`))
	if code != 0 {
		t.Fatal("div by zero must not trap")
	}
}

func TestBltzBgez(t *testing.T) {
	_, code, _ := run(t, exitWith(`
        li    $t0, -5
        move  $a0, $zero
        bltz  $t0, n1
        ori   $a0, $zero, 1      # must be skipped
n1:     bgez  $t0, bad
        ori   $t1, $zero, 3
        bgez  $t1, n2
bad:    ori   $a0, $zero, 1
n2:
`))
	if code != 0 {
		t.Fatalf("bltz/bgez wrong: %d", code)
	}
}

func TestJalrLinksCorrectly(t *testing.T) {
	_, code, _ := run(t, `
        .text
        .proc main
main:   la    $t0, target
        jalr  $t1, $t0
after:  move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc target
target: la    $t2, after
        beq   $t1, $t2, good
        ori   $a0, $zero, 1
        ori   $v0, $zero, 10
        syscall
good:   jr    $t1
        .endp
`)
	if code != 0 {
		t.Fatal("jalr link register wrong")
	}
}

func errRun(t *testing.T, src string) error {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(DefaultConfig())
	c.Cfg.MaxInstr = 100000
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	return err
}

func TestUnalignedAccessErrors(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"lw", "li $t0, 0x20000001\nlw $t1, 0($t0)"},
		{"lh", "li $t0, 0x20000001\nlh $t1, 0($t0)"},
		{"lhu", "li $t0, 0x20000003\nlhu $t1, 0($t0)"},
		{"sw", "li $t0, 0x20000002\nsw $t1, 0($t0)"},
		{"sh", "li $t0, 0x20000001\nsh $t1, 0($t0)"},
	}
	for _, c := range cases {
		err := errRun(t, exitWith(c.body))
		if err == nil || !strings.Contains(err.Error(), "unaligned") {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

// TestUnknownSyscallErrors: both engines name the syscall's own
// address. The functional engine keeps the PC in a local between region
// changes, so the CPU's pc field would name the start of the run.
func TestUnknownSyscallErrors(t *testing.T) {
	im, err := asm.Assemble(exitWith("nop\nnop\nori $v0, $zero, 99\nsyscall"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "cpu: unknown syscall 99 at 0x40000c"
	for _, functional := range []bool{false, true} {
		c, _ := New(DefaultConfig())
		c.Cfg.Functional = functional
		if err := c.Load(im); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err == nil || err.Error() != want {
			t.Errorf("functional=%v: err = %v, want %q", functional, err, want)
		}
	}
}

func TestBreakErrors(t *testing.T) {
	err := errRun(t, exitWith("break"))
	if err == nil || !strings.Contains(err.Error(), "break") {
		t.Fatalf("err = %v", err)
	}
}

func TestIllegalInstructionErrors(t *testing.T) {
	im, err := asm.Assemble(exitWith("nop"))
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the nop with an illegal encoding (opcode 0x3F).
	text := im.Segments[0]
	text.SetWord(im.Entry, 0xFC000000)
	c, _ := New(DefaultConfig())
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	if err == nil || !strings.Contains(err.Error(), "illegal opcode") {
		t.Fatalf("err = %v", err)
	}
}

func TestZeroRegisterIsImmutable(t *testing.T) {
	_, code, _ := run(t, exitWith(`
        ori   $zero, $zero, 0xFFFF
        addiu $zero, $zero, 100
        move  $a0, $zero
`))
	if code != 0 {
		t.Fatal("$zero must stay zero")
	}
}

func TestTraceHookSeesInstructions(t *testing.T) {
	im, err := asm.Assemble(exitWith("nop\nnop"))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(DefaultConfig())
	var got []uint32
	c.Trace = func(pc, w uint32, handler bool) {
		got = append(got, w)
		if handler {
			t.Error("no handler in this test")
		}
	}
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 { // nop nop ori syscall
		t.Fatalf("trace saw %d instructions", len(got))
	}
	if got[0] != isa.NOP {
		t.Fatalf("first traced word %#x", got[0])
	}
}

func TestCallProfilerReceivesEdges(t *testing.T) {
	im, err := asm.Assemble(`
        .text
        .proc main
main:   ori   $s0, $zero, 5
loop:   jal   callee
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc callee
callee: jr    $ra
        .endp
`)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(DefaultConfig())
	prof := NewProcProfile(im)
	c.Prof = prof
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for k, v := range prof.Calls {
		if prof.Procs[k[0]].Name == "main" && prof.Procs[k[1]].Name == "callee" {
			total += v
		}
	}
	if total != 5 {
		t.Fatalf("main->callee edges = %d, want 5", total)
	}
}
