package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile (runtime/pprof's gzipped profile.proto) is bucketed by
// the package of each sample's leaf function — the innermost frame,
// inlining included — so a layer's share is the host CPU time spent in
// its own code, not in what it calls. Only the handful of profile.proto
// fields the bucketing needs are decoded; everything else is skipped.

// Field numbers from profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

var errTruncated = errors.New("profile: truncated protobuf")

// leafShares decodes a gzipped CPU profile and returns each leaf
// package's share of the sampled CPU time (the last sample value, which
// for a CPU profile is nanoseconds), plus the total it is a share of.
func leafShares(gz []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byPkg := make(map[string]float64)
	total := 0.0
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		pkg := "unknown"
		if len(s.locs) > 0 {
			if fn, ok := p.leafFunc[s.locs[0]]; ok {
				pkg = funcPackage(p.funcName(fn))
			}
		}
		byPkg[pkg] += v
	}
	if total > 0 {
		for k := range byPkg {
			byPkg[k] /= total
		}
	}
	return byPkg, total, nil
}

// funcPackage returns the import path of a symbol as the profiler names
// it: "threadcluster/internal/sim.(*Machine).runSlice" ->
// "threadcluster/internal/sim", "runtime.mallocgc" -> "runtime".
// Generic instantiations ("sweep.Map[...]") are cut at the bracket, whose
// contents may contain slashes.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf maps a leaf package onto the benchmark's layer names: the
// repository's internal packages by their own names, the Go runtime
// (allocation, GC, scheduling) as "runtime", everything else as "other".
func layerOf(pkg string) string {
	const internal = "threadcluster/internal/"
	switch {
	case strings.HasPrefix(pkg, internal):
		rest := pkg[len(internal):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/"):
		return "runtime"
	}
	return "other"
}

// layerShares folds leaf-package shares into layer shares.
func layerShares(byPkg map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for pkg, v := range byPkg {
		out[layerOf(pkg)] += v
	}
	return out
}

type profSample struct {
	locs   []uint64
	values []int64
}

type decodedProfile struct {
	samples  []profSample
	leafFunc map[uint64]uint64 // location id -> innermost function id
	funcs    map[uint64]int64  // function id -> name string index
	strs     []string
}

func (p *decodedProfile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return "unknown"
}

func decodeProfile(b []byte) (*decodedProfile, error) {
	p := &decodedProfile{leafFunc: make(map[uint64]uint64), funcs: make(map[uint64]int64)}
	err := eachField(b, func(num, _ int, _ uint64, data []byte) error {
		switch num {
		case fProfileSample:
			s, err := decodeSample(data)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id, fn uint64
			haveFn := false
			err := eachField(data, func(num, _ int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					if haveFn {
						return nil // later lines are the callers it was inlined into
					}
					haveFn = true
					return eachField(data, func(num, _ int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveFn {
				p.leafFunc[id] = fn
			}
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case fProfileStrings:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func decodeSample(b []byte) (profSample, error) {
	var s profSample
	err := eachField(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case fSampleLocation:
			return appendRepeated(wire, v, data, func(x uint64) { s.locs = append(s.locs, x) })
		case fSampleValue:
			return appendRepeated(wire, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
		}
		return nil
	})
	return s, err
}

// appendRepeated handles a repeated varint field in either encoding:
// one value per field (wire type 0) or packed (wire type 2).
func appendRepeated(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value (wire type 0) or its bytes
// (wire type 2). Fixed-width fields are passed with neither.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
