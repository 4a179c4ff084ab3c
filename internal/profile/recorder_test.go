package profile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/decomp"
	"repro/internal/isa"
	"repro/internal/program"
)

// Attribution edge cases: deep recursion (PC→procedure mapping under a
// churning call stack), jr jump tables (indirect control flow between
// procedures), swic invalidation mid-handler (handler cycles must land
// on the faulting line, never on handler RAM), and the determinism of
// zero-line omission.

func assemble(t *testing.T, src string) *program.Image {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return im
}

func compress(t *testing.T, im *program.Image, scheme string) *program.Image {
	t.Helper()
	res, err := core.Compress(im, core.Options{Scheme: program.Scheme(scheme)})
	if err != nil {
		t.Fatalf("compress %s: %v", scheme, err)
	}
	return res.Image
}

// TestRecursionAttribution runs the recursive N-queens example: every
// commit inside the recursive solver — at any stack depth, including
// the jal/jr glue — must map to the solve procedure, and the invariant
// must hold under compression too.
func TestRecursionAttribution(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "queens.s"))
	if err != nil {
		t.Fatal(err)
	}
	im := assemble(t, string(src))
	for _, scheme := range []string{"native", "dict"} {
		run := im
		if scheme != "native" {
			run = compress(t, im, scheme)
		}
		r, c := runProfiled(t, "queens/"+scheme, run, nil)
		if err := r.Verify(); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		p := r.Profile()
		solve := p.ProcByName("solve")
		if solve == nil || solve.Instrs+solve.HandlerInstrs == 0 {
			t.Fatalf("%s: no cost attributed to the recursive procedure", scheme)
		}
		main := p.ProcByName("main")
		if main == nil || main.Instrs == 0 {
			t.Fatalf("%s: no cost attributed to main", scheme)
		}
		if out := p.ProcByName(OutsideName); out != nil {
			t.Errorf("%s: %d cycles attributed outside the procedure table", scheme, out.Cycles)
		}
		// The recursive workhorse dominates: solve retires far more than
		// main in a 6-queens search.
		if solve.Instrs < main.Instrs {
			t.Errorf("%s: solve retired %d instrs, main %d — mapping looks inverted",
				scheme, solve.Instrs, main.Instrs)
		}
		if scheme != "native" && c.Stats.Exceptions > 0 && solve.DecompCycles() == 0 {
			t.Errorf("%s: compressed run took %d exceptions but solve has no decompression cycles",
				scheme, c.Stats.Exceptions)
		}
	}
}

// jumpTableSrc dispatches through a .word table with jr: three target
// procedures are reached only via the computed jump, exercising the
// PC→procedure mapping on indirect control flow.
const jumpTableSrc = `
        .data
tab:    .word alpha, beta, gamma
        .text
        .proc main
main:   move  $s0, $zero             # accumulator
        move  $s1, $zero             # index
loop:   slti  $t0, $s1, 30
        beq   $t0, $zero, done
        # target = tab[index % 3]
        ori   $t1, $zero, 3
        divu  $s1, $t1
        mfhi  $t2
        sll   $t2, $t2, 2
        la    $t3, tab
        addu  $t3, $t3, $t2
        lw    $t4, 0($t3)
        jalr  $t4
        addu  $s0, $s0, $v0
        addiu $s1, $s1, 1
        b     loop
done:   move  $a0, $s0
        ori   $v0, $zero, 1
        syscall
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp

        .proc alpha
alpha:  ori   $v0, $zero, 1
        jr    $ra
        .endp

        .proc beta
beta:   ori   $v0, $zero, 2
        jr    $ra
        .endp

        .proc gamma
gamma:  ori   $v0, $zero, 3
        jr    $ra
        .endp
`

// TestJumpTableAttribution checks that commits reached only through a
// jr/jalr jump table land in the right procedure buckets.
func TestJumpTableAttribution(t *testing.T) {
	im := assemble(t, jumpTableSrc)
	for _, scheme := range []string{"native", "dict"} {
		run := im
		if scheme != "native" {
			run = compress(t, im, scheme)
		}
		r, _ := runProfiled(t, "jumptab/"+scheme, run, nil)
		if err := r.Verify(); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		p := r.Profile()
		for _, name := range []string{"alpha", "beta", "gamma"} {
			pr := p.ProcByName(name)
			if pr == nil || pr.Instrs == 0 {
				t.Errorf("%s: jump-table target %s got no attributed commits", scheme, name)
			}
			// 30 dispatches over 3 targets: each runs exactly 10 times, two
			// user instructions per visit.
			if pr != nil && pr.Instrs != 20 {
				t.Errorf("%s: %s retired %d user instrs, want 20", scheme, name, pr.Instrs)
			}
		}
		if out := p.ProcByName(OutsideName); out != nil {
			t.Errorf("%s: %d cycles attributed outside the procedure table", scheme, out.Cycles)
		}
	}
}

// TestSwicMidHandlerAttribution forces heavy I-cache churn — a tiny
// direct-mapped cache under a compressed image, where handler swic
// stores and evictions interleave with in-flight service intervals —
// and checks that every attributed line is program code: handler-RAM
// addresses must never appear, because handler commits charge the
// faulting EPC line.
func TestSwicMidHandlerAttribution(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "queens.s"))
	if err != nil {
		t.Fatal(err)
	}
	im := compress(t, assemble(t, string(src)), "dict")
	small := func(cfg *cpu.Config) {
		cfg.ICache = cache.Config{SizeBytes: 128, LineBytes: 32, Ways: 1}
	}
	r, c := runProfiled(t, "queens/dict-small", im, small)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Exceptions < 10 {
		t.Fatalf("tiny cache took only %d decompression exceptions; churn not exercised", c.Stats.Exceptions)
	}
	p := r.Profile()
	for _, l := range p.Lines {
		if l.Addr >= program.HandlerBase {
			t.Errorf("line 0x%08x is in handler RAM: handler cycles must charge the faulting line", l.Addr)
		}
		if seg := im.SegmentAt(l.Addr); seg == nil || !program.IsCodeSeg(seg.Name) {
			t.Errorf("line 0x%08x attributed outside the image's code segments", l.Addr)
		}
	}
	// All decompression work must have been attributed somewhere.
	if p.Total.DecompCycles() == 0 || p.Total.CPIStack[cpu.CycleHandler] == 0 {
		t.Fatal("no handler cycles attributed despite exceptions")
	}
}

// TestZeroLinesOmittedDeterministically: lines never executed must not
// appear, line records must be strictly ascending, and two identical
// runs must serialize byte-identically.
func TestZeroLinesOmittedDeterministically(t *testing.T) {
	const deadSrc = `
        .text
        .proc main
main:   ori   $a0, $zero, 7
        ori   $v0, $zero, 1
        syscall
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp

        .proc dead
dead:   addiu $t0, $t0, 1
        addiu $t0, $t0, 2
        addiu $t0, $t0, 3
        jr    $ra
        .endp
`
	im := assemble(t, deadSrc)
	serialize := func() []byte {
		r, _ := runProfiled(t, "dead", im, nil)
		if err := r.Verify(); err != nil {
			t.Fatal(err)
		}
		p := r.Profile()
		p.SetIdentity("dead", "native")
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		dead := p.ProcByName("dead")
		if dead == nil {
			t.Fatal("zero-cost procedures must stay in the table")
		}
		if !dead.Cost.IsZero() {
			t.Fatalf("dead procedure accumulated cost: %+v", dead.Cost)
		}
		for i, l := range p.Lines {
			if l.Cost.IsZero() {
				t.Fatalf("zero-cost line 0x%08x serialized", l.Addr)
			}
			if i > 0 && p.Lines[i-1].Addr >= l.Addr {
				t.Fatalf("line records not strictly ascending at 0x%08x", l.Addr)
			}
		}
		return buf.Bytes()
	}
	a, b := serialize(), serialize()
	if !bytes.Equal(a, b) {
		t.Error("identical runs serialized differently")
	}
}

// TestVerifyCatchesDrift tampers with a bucket and expects Verify to
// name the drifted field.
func TestVerifyCatchesDrift(t *testing.T) {
	im := assemble(t, jumpTableSrc)
	r, _ := runProfiled(t, "drift", im, nil)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, lc := range r.lines {
		lc.Cycles++
		break
	}
	err := r.Verify()
	if err == nil {
		t.Fatal("tampered attribution passed Verify")
	}
	if want := "attribution invariant"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

// attachPerCommit hooks r into c as the per-commit reference recorder:
// every commit's Stats delta is diffed on its own and charged to the
// line and procedure of its target, with a linear procedure lookup.
// It fills the same buckets a run-coalescing Recorder fills and never
// opens a run, so Profile and Verify read them unchanged.
func attachPerCommit(r *Recorder, c *cpu.CPU) {
	r.c = c
	r.lineBytes = uint32(c.Cfg.ICache.LineBytes)
	procIndex := func(addr uint32) int {
		for i := range r.im.Procs {
			if r.im.Procs[i].Contains(addr) {
				return i
			}
		}
		return len(r.im.Procs)
	}
	c.AttachTrace(func(pc, instr uint32, handler bool) {
		target := pc
		if handler {
			target = c.C0(4)
		}
		s := c.Stats
		reads, bytes := c.Mem.Reads, c.Mem.BytesRead
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
		// Only an iret commit closes a service interval.
		d.ExcCyclesMax = d.ExcCyclesTotal
		la := target &^ (r.lineBytes - 1)
		lc := r.lines[la]
		if lc == nil {
			lc = new(Cost)
			r.lines[la] = lc
		}
		lc.Add(d)
		r.procCosts[procIndex(target)].Add(d)
		r.prev = s
		r.prevReads, r.prevBytes = reads, bytes
		r.committed++
	})
}

// sharedLineBody packs procedures into shared I-cache lines: main's
// loop calls inc inside one line, fall has no return and falls through
// into into, so runs must split at procedure boundaries within a line.
const sharedLineBody = `
        .proc main
main:   ori   $s0, $zero, 40
loop:   jal   inc
        addiu $s0, $s0, -1
        bne   $s0, $zero, loop
        move  $a0, $v1
        ori   $v0, $zero, 1
        syscall
        jal   fall
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp

        .proc inc
inc:    addiu $v1, $v1, 1
        jr    $ra
        .endp

        .proc fall
fall:   addiu $v1, $v1, 1
        .endp

        .proc into
into:   addiu $v1, $v1, 2
        jr    $ra
        .endp
`

// outsideSrc enters through code outside every procedure that shares
// one line with pre before it and main after it, so runs must end at
// both edges of the gap. Compression needs the entry inside a
// procedure: it runs native only.
const outsideSrc = `
        .text
        .entry stub
        .proc pre
pre:    addiu $s2, $s2, 1
        jr    $ra
        .endp
stub:   jal   pre
        j     main
` + sharedLineBody

// TestRunCoalescingMatchesPerCommit attaches the run-coalescing
// Recorder and the per-commit reference to the same machine and
// requires deep-equal profiles over every testdata program (plus the
// shared-line program) × native and every registered codec × shadow
// register file on/off × 16 KB and 1 KB I-cache × hardware
// decompression on/off, and the outside-procedure program natively.
func TestRunCoalescingMatchesPerCommit(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.s"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly examples found: %v", err)
	}
	sources := map[string]string{"sharedline": "        .text\n" + sharedLineBody}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sources[filepath.Base(path)] = string(src)
	}
	outside := assemble(t, outsideSrc)
	for _, kb := range []int{16, 1} {
		checkCoalescing(t, fmt.Sprintf("outside/native/%dK", kb), outside, kb, false)
	}
	for file, src := range sources {
		native := assemble(t, src)
		for _, scheme := range append([]string{"native"}, codec.Names()...) {
			for _, rf := range []bool{false, true} {
				im := native
				if scheme != "native" {
					res, err := core.Compress(native, core.Options{Scheme: program.Scheme(scheme), ShadowRF: rf})
					if err != nil {
						t.Fatalf("%s/%s: compress: %v", file, scheme, err)
					}
					im = res.Image
				} else if rf {
					continue // no handler, nothing for the shadow file to change
				}
				for _, kb := range []int{16, 1} {
					for _, hw := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/rf=%v/%dK/hw=%v", file, scheme, rf, kb, hw)
						checkCoalescing(t, name, im, kb, hw)
					}
				}
			}
		}
	}
}

func checkCoalescing(t *testing.T, name string, im *program.Image, kb int, hw bool) {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 20_000_000
	cfg.ICache.SizeBytes = kb * 1024
	cfg.HardwareDecompress = hw
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, ref := NewRecorder(im), NewRecorder(im)
	r.Attach(c)
	attachPerCommit(ref, c)
	if err := c.Load(im); err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	if err := ref.Verify(); err != nil {
		t.Fatalf("%s: per-commit reference: %v", name, err)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got, want := r.Profile(), ref.Profile(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: run-coalesced profile differs from the per-commit reference\n got procs %+v\nwant procs %+v\n got lines %+v\nwant lines %+v",
			name, got.Procs, want.Procs, got.Lines, want.Lines)
	}
}

// TestVerifyCatchesEPCRewrite seeds the one way a commit can escape the
// run the lookahead kept open: a handler that rewrites EPC mid-service.
// The program still runs correctly (the handler restores EPC before
// iret), the per-commit reference still balances, but Verify must
// refuse the coalesced attribution and name the rewriting instruction.
func TestVerifyCatchesEPCRewrite(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "queens.s"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compress(assemble(t, string(src)), core.Options{Scheme: program.SchemeDict, ShadowRF: true})
	if err != nil {
		t.Fatal(err)
	}
	im := res.Image
	hsrc, err := decomp.Source(decomp.Variant{Scheme: program.SchemeDict, ShadowRF: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hsrc, "iret") {
		t.Fatal("handler source has no iret")
	}
	hsrc = strings.Replace(hsrc, "iret", `mfc0  $t6, $c0_epc
        addiu $t7, $t6, 64
        mtc0  $t7, $c0_epc
        mtc0  $t6, $c0_epc
        iret`, 1)
	him := assemble(t, hsrc)
	seg := him.Segment(program.SegDecompressor)
	if seg == nil {
		t.Fatalf("mutated handler has no %s segment", program.SegDecompressor)
	}
	var rewrite uint32
	for off := 0; off+4 <= len(seg.Data); off += 4 {
		pc := seg.Base + uint32(off)
		if strings.HasPrefix(isa.Disassemble(pc, seg.Word(pc)), "mtc0") {
			rewrite = pc
			break
		}
	}
	if rewrite == 0 {
		t.Fatal("mutated handler has no mtc0")
	}
	replaced := false
	for i, s := range im.Segments {
		if s.Name == program.SegDecompressor {
			im.Segments[i], replaced = seg, true
		}
	}
	if !replaced {
		t.Fatal("compressed image has no handler segment")
	}

	c, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, ref := NewRecorder(im), NewRecorder(im)
	r.Attach(c)
	attachPerCommit(ref, c)
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if code, err := c.Run(); err != nil || code != 0 {
		t.Fatalf("EPC-rewriting handler broke the program: code %d, %v", code, err)
	}
	if c.Stats.Exceptions == 0 {
		t.Fatal("no decompression exceptions: the rewrite never ran")
	}
	if err := ref.Verify(); err != nil {
		t.Fatalf("per-commit reference: %v", err)
	}
	err = r.Verify()
	if err == nil {
		t.Fatal("Verify accepted a commit outside its run")
	}
	if want := fmt.Sprintf("commit at %#x", rewrite); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "outside its run") {
		t.Errorf("error %q does not name the out-of-run commit (%s)", err, want)
	}
}
