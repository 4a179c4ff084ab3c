package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzip-compressed protobuf profiles that
// runtime/pprof writes (github.com/google/pprof/proto/profile.proto).
// It decodes only what the CPU-profile buckets need: each sample's
// stack as (function name, file name) frames, leaf first, and its
// CPU-time value.

type frame struct{ name, file string }

type profSample struct {
	stack []frame
	value int64 // the last sample value: CPU nanoseconds
}

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errors.New("pprof: truncated varint")
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// field reads the next field: its number, wire type, varint value or
// length-delimited payload.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errors.New("pprof: truncated fixed64")
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errors.New("pprof: truncated field")
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errors.New("pprof: truncated fixed32")
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("pprof: wire type %d", wire)
	}
	return num, wire, v, data, err
}

// uints decodes a repeated integer field, packed or not.
func uints(wire int, v uint64, data []byte, into []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(into, v), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		into = append(into, x)
	}
	return into, nil
}

// readProfile decodes a runtime/pprof CPU profile.
func readProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{}  // location id → function ids, innermost first
		funcs    = map[uint64][2]uint64{} // function id → (name, file) string indices
		strs     []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		q := pbuf{data}
		switch num {
		case 2: // Sample
			var s rawSample
			for len(q.b) > 0 {
				n, w, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(w, v, d, s.locs)
				case 2:
					s.vals, err = uints(w, v, d, s.vals)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name, file uint64
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
			}
			funcs[id] = [2]uint64{name, file}
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if len(s.vals) > 0 {
			ps.value = int64(s.vals[len(s.vals)-1])
		}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				f := funcs[fid]
				ps.stack = append(ps.stack, frame{name: str(f[0]), file: str(f[1])})
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
