// Command ccverify checks that two program images are architecturally
// equivalent by running them in lockstep and comparing every committed
// user instruction and the register state, then the exit code and the
// printed output at halt. Use it to validate a
// compressed image against its native original:
//
//	ccverify prog.img prog.cc.img
//	ccverify -max 100000 prog.img prog.cc.img   # bound the comparison
//	ccverify -static prog.img prog.cc.img       # lint first, then lockstep
//	ccverify -static-only prog.img prog.cc.img  # lint only, skip simulation
//
// -static runs the cclint rules (internal/analysis) over both images
// before simulating: broken handlers, unmapped branch targets, and bad
// re-layouts are caught in milliseconds instead of after a full
// lockstep run. -static-only stops there, which is the right mode in
// tight edit loops where a dynamic run is too slow.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ccverify: ")
	var (
		icacheKB   = flag.Int("icache", 16, "I-cache size in KB")
		maxSteps   = flag.Uint64("max", 0, "maximum user instructions to compare (0 = to completion)")
		static     = flag.Bool("static", false, "run the static analyzer on both images before lockstep")
		staticOnly = flag.Bool("static-only", false, "run only the static analyzer, skip the lockstep run")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	a, err := program.LoadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	b, err := program.LoadFile(flag.Arg(1))
	if err != nil {
		log.Fatal(err)
	}
	if *static || *staticOnly {
		bad := 0
		for i, im := range []*program.Image{a, b} {
			rep := analysis.AnalyzeImage(im)
			for _, f := range rep.AtLeast(analysis.Warning) {
				fmt.Printf("%s: %s\n", flag.Arg(i), f)
				bad++
			}
		}
		if bad > 0 {
			fmt.Printf("static analysis: %d finding(s)\n", bad)
			os.Exit(1)
		}
		fmt.Println("static analysis: clean")
		if *staticOnly {
			return
		}
	}
	cfg := cpu.DefaultConfig()
	cfg.ICache.SizeBytes = *icacheKB * 1024
	cfg.MaxInstr = 2_000_000_000
	ok, msg := verify.Equivalent(a, b, cfg, *maxSteps)
	fmt.Println(msg)
	if !ok {
		os.Exit(1)
	}
}
