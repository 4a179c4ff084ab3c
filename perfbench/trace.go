package main

import (
	"fmt"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public functions.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// tracer records spans when on. Ops are root spans; the calls an op
// makes into the layers are their children.
type tracer struct {
	on    bool
	spans []span
	stack []int
}

func (t *tracer) open(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) close(id int) {
	t.spans[id].end = time.Now()
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	if !t.on {
		return f()
	}
	id := t.open(name)
	err := f()
	t.close(id)
	return err
}

// root runs one op as a root span and returns its wall time. With
// tracing on, the span is the op timer itself, and the op's spans are
// reconciled: each child lies inside its parent, siblings do not
// overlap, so the self times of the op's spans sum exactly to its wall
// time. A span tree that does not reconcile fails the op.
func (t *tracer) root(name string, f func() error) (time.Duration, error) {
	if !t.on {
		start := time.Now()
		err := f()
		return time.Since(start), err
	}
	id := t.open(name)
	err := f()
	t.close(id)
	if rerr := t.reconcile(id); rerr != nil && err == nil {
		err = rerr
	}
	return t.spans[id].end.Sub(t.spans[id].start), err
}

// reconcile checks the span tree rooted at id (the spans recorded after
// it) and that its self times sum to its wall time.
func (t *tracer) reconcile(id int) error {
	var selfSum time.Duration
	lastEnd := map[int]time.Time{}
	for i := id; i < len(t.spans); i++ {
		s := t.spans[i]
		if i > id {
			p := t.spans[s.parent]
			if s.start.Before(p.start) || s.end.After(p.end) || s.start.Before(lastEnd[s.parent]) {
				return fmt.Errorf("span %s escapes its parent %s", s.name, p.name)
			}
			lastEnd[s.parent] = s.end
		}
		selfSum += t.self(i)
	}
	if wall := t.spans[id].end.Sub(t.spans[id].start); selfSum != wall {
		return fmt.Errorf("span self times sum to %v, op wall time %v", selfSum, wall)
	}
	return nil
}

// self is span i's duration minus the time its children cover.
func (t *tracer) self(i int) time.Duration {
	d := t.spans[i].end.Sub(t.spans[i].start)
	for j := i + 1; j < len(t.spans); j++ {
		if t.spans[j].parent == i {
			d -= t.spans[j].end.Sub(t.spans[j].start)
		}
	}
	return d
}

// layerTime is the summed self time and count of the spans of one name.
type layerTime struct {
	self time.Duration
	n    int
}

func (l layerTime) meanMs() float64 {
	if l.n == 0 {
		return 0
	}
	return l.self.Seconds() * 1e3 / float64(l.n)
}

// selfTimes sums self time per span name over every recorded span.
func (t *tracer) selfTimes() map[string]layerTime {
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.name]
		lt.self += t.self(i)
		lt.n++
		out[s.name] = lt
	}
	return out
}

// CPU-profile buckets. A sample belongs to the first layer found walking
// its stack from the leaf; frames of other repo packages, the standard
// library and the runtime are transparent (their time is the calling
// layer's), except that allocation and garbage collection form a bucket
// of their own wherever they are called from.
var profileBuckets = []string{
	"cpu.fetch", "cpu.execute", "cache", "bpred", "mem", "cpu.funct",
	"fastpath", "profile", "telemetry", "verify", "runtime.alloc_gc",
}

// allocGCFrames mark allocation and collection. The scheduler frames
// are there too: with one simulating goroutine, the scheduler runs only
// to place the collector's workers and to preempt for it.
var allocGCFrames = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.(*mheap)", "runtime.(*mcache)",
	"runtime.growslice", "runtime.makeslice", "runtime.newobject", "runtime.makemap",
	"runtime.hashGrow", "runtime.growWork", "runtime.memclrNoHeapPointers",
	"runtime.schedule", "runtime.findRunnable", "runtime.goschedImpl", "runtime.mcall",
	"runtime.stopm", "runtime.wakep", "gogo",
}

// isBench reports whether a frame is the benchmark's own code: package
// main in the built program, repro/perfbench in its tests.
func isBench(f frame) bool {
	return strings.HasPrefix(f.name, "main.") || strings.HasPrefix(f.name, "repro/perfbench.")
}

// frameBucket maps one frame to its layer, or "" if it is transparent.
func frameBucket(f frame) string {
	const repo = "repro/internal/"
	if !strings.HasPrefix(f.name, repo) {
		if isBench(f) {
			return "bench"
		}
		return ""
	}
	pkg := f.name[len(repo):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "cpu":
		switch {
		case strings.HasSuffix(f.file, "/funct.go") &&
			!strings.Contains(f.name, ").RunDetailed") && !strings.HasSuffix(f.name, ").totalInstrs"):
			return "cpu.funct"
		case strings.HasSuffix(f.file, "/predecode.go"),
			strings.HasSuffix(f.name, ").fetch"), strings.HasSuffix(f.name, ").hardwareFill"):
			return "cpu.fetch"
		}
		return "cpu.execute"
	case "cache", "bpred", "mem", "fastpath", "profile", "telemetry", "verify":
		return pkg
	}
	return ""
}

// sampleBucket returns the bucket of one CPU-profile sample (leaf first).
func sampleBucket(stack []frame) string {
	for _, f := range stack {
		if isBench(f) && strings.HasSuffix(f.name, ".refKernel") || f.name == "runtime.GC" {
			return "harness"
		}
	}
	for _, f := range stack {
		for _, g := range allocGCFrames {
			if strings.HasPrefix(f.name, g) {
				return "runtime.alloc_gc"
			}
		}
	}
	for _, f := range stack {
		if b := frameBucket(f); b != "" {
			return b
		}
	}
	return "other"
}

// profileShares buckets a CPU profile's samples. Shares are percent of
// the samples outside the harness (the reference kernel and the forced
// collection before each op), for the layer buckets and for "bench" and
// "other"; coverage is the share the layer buckets account for together.
func profileShares(samples []profSample) (shares map[string]float64, coverage float64) {
	weights := map[string]int64{}
	var total int64
	for _, s := range samples {
		b := sampleBucket(s.stack)
		if b == "harness" {
			continue
		}
		weights[b] += s.value
		total += s.value
	}
	shares = map[string]float64{}
	for b, w := range weights {
		shares[b] = 100 * float64(w) / float64(total)
	}
	for _, b := range profileBuckets {
		coverage += shares[b]
	}
	return shares, coverage
}
