// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload as a closed loop — one simulation at a
// time, each cpu.New → Load → run → check — and prints, as its last
// line, one JSON object with the end-to-end metrics (or, with -trace 1,
// the per-layer metrics). README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.Seed, "seed", 0, "offset added to every synthetic benchmark's generator seed (0 = registry images)")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "minimum timed measurement, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Float64Var(&cfg.RefMs, "ref-ms", 60, "R0: reference-kernel milliseconds per reference-second")
	flag.StringVar(&cfg.WorkDir, "workdir", ".", "directory for checkpoint files")
	flag.Parse()
	cfg.Trace = trace == 1
	cfg.Scale, cfg.SetupReps, cfg.MinPasses = 1, 7, 2
	if !slices.Contains(workloadNames, cfg.Workload) || (trace != 0 && trace != 1) || flag.NArg() != 0 || cfg.RefMs <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", e)
	}
	detail, _ := json.Marshal(rep.detail)
	final, _ := json.Marshal(rep.out)
	fmt.Printf("%s\n%s\n", detail, final)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
