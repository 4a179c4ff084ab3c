package main

import (
	"time"
)

// The reference kernel is frozen pure-Go work timed beside every
// simulation op. It imports nothing from the simulator, so its speed
// depends only on the host. Dividing host throughput by the kernel's
// speed in the same run cancels most of the drift a shared machine shows
// between runs.
//
// It has two halves, because the simulator's speed depends on two
// things a shared host varies: a table loop (unpredictable branches,
// integer arithmetic, loads and stores into a 256 KiB table) and a toy
// interpreter that, like the simulator's fetch path, keeps decoded
// lines in a map behind a 2-way tag array and allocates one per fill,
// so it also feels how much garbage-collector time the host leaves the
// process. On a 2-vCPU host whose speed drifted by 2x, the sum tracked
// detailed-simulation time with a 3-5% coefficient of variation, against
// 8-9% for the table loop alone.
//
// Never change the constants or the loops: every recorded
// user_minstr_per_ref_s value is relative to this exact kernel.
const (
	refTableBits = 16
	refTableIter = 2_500_000
	refProgBits  = 18
	refSteps     = 4_000_000
)

var (
	refTable [1 << refTableBits]uint32
	refProg  = func() []uint32 {
		p := make([]uint32, 1<<refProgBits)
		x := uint32(1)
		for i := range p {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			p[i] = x
		}
		return p
	}()
	refSink uint32
)

// refKernel runs the kernel once and returns its wall time.
func refKernel() time.Duration {
	start := time.Now()
	refSink = refTableLoop() + refInterp()
	return time.Since(start)
}

func refTableLoop() uint32 {
	for i := range refTable {
		refTable[i] = uint32(i) * 2654435761
	}
	x, acc := uint32(2463534242), uint32(0)
	const mask = 1<<refTableBits - 1
	for i := 0; i < refTableIter; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := (x ^ acc) & mask
		v := refTable[j]
		if v&1 != 0 {
			acc += v >> 1
		} else {
			acc ^= v * 2654435761
		}
		refTable[j] = v + acc
	}
	return acc
}

type refLine [8]uint64

func refInterp() uint32 {
	const sets = 128
	const mask = 1<<refProgBits - 1
	var tags [sets][2]uint32
	var lru [sets]uint8
	dec := map[uint32]*refLine{}
	var regs [16]uint32
	pc := uint32(0)
	for s := 0; s < refSteps; s++ {
		line := pc >> 3
		set := line % sets
		switch {
		case tags[set][0] == line+1:
			lru[set] = 0
		case tags[set][1] == line+1:
			lru[set] = 1
		default:
			w := 1 - lru[set]
			if old := tags[set][w]; old != 0 {
				delete(dec, old-1)
			}
			tags[set][w], lru[set] = line+1, w
			d := new(refLine)
			for i := range d {
				d[i] = uint64(refProg[(line*8+uint32(i))&mask]) * 0x9E3779B97F4A7C15
			}
			dec[line] = d
		}
		ins := dec[line][pc&7]
		ra, rb := (ins>>8)&15, (ins>>12)&15
		switch ins >> 60 {
		case 0, 1, 2, 3:
			regs[ra] += regs[rb] + uint32(ins)
			pc++
		case 4, 5:
			regs[ra] ^= regs[rb] << 3
			pc++
		case 6, 7:
			regs[ra] = refProg[(regs[rb]+uint32(ins>>16))&mask]
			pc++
		case 8:
			if regs[ra]&1 != 0 {
				pc = uint32(ins >> 20)
			} else {
				pc++
			}
		case 9:
			if regs[ra]&4 == 0 {
				pc -= 24
			} else {
				pc++
			}
		default:
			regs[ra] -= regs[rb]
			pc++
		}
		pc &= mask
	}
	return regs[3]
}
