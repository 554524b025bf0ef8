package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"threadcluster/internal/sim.(*Machine).runSlice":         "threadcluster/internal/sim",
		"threadcluster/internal/workloads.(*BTree).Lookup.func1": "threadcluster/internal/workloads",
		"runtime.mallocgc":                                              "runtime",
		"runtime/internal/atomic.(*Uint32).Load":                        "runtime/internal/atomic",
		"threadcluster/internal/sweep.Map[go.shape.struct { a/b int }]": "threadcluster/internal/sweep",
		"main.main":          "main",
		"sync.(*Mutex).Lock": "sync",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for pkg, want := range map[string]string{
		"threadcluster/internal/cache":      "cache",
		"threadcluster/internal/lint/facts": "lint",
		"runtime":                           "runtime",
		"runtime/internal/atomic":           "runtime",
		"net/http":                          "other",
		"main":                              "other",
	} {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return b.bytes(num, inner)
}

// TestLeafShares buckets a hand-built profile: the leaf of an inlined
// location is its first line, and shares weigh the last sample value.
func TestLeafShares(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"threadcluster/internal/cache.(*Lane).access",
		"threadcluster/internal/sim.(*Machine).runSlice",
		"runtime.mallocgc"}
	var prof pb
	prof = prof.bytes(fProfileSample, pb(nil).packed(fSampleLocation, 1, 2).packed(fSampleValue, 3, 300))
	// Unpacked encoding of the repeated fields is legal too.
	prof = prof.bytes(fProfileSample, pb(nil).varint(fSampleLocation, 2).varint(fSampleValue, 1).varint(fSampleValue, 100))
	prof = prof.bytes(fProfileSample, pb(nil).packed(fSampleLocation, 3).packed(fSampleValue, 6, 600))
	line := func(fn uint64) []byte { return pb(nil).varint(fLineFunction, fn) }
	// Location 1: cache access inlined into runSlice; the leaf is cache.
	prof = prof.bytes(fProfileLocation, pb(nil).varint(fLocationID, 1).bytes(fLocationLine, line(10)).bytes(fLocationLine, line(11)))
	prof = prof.bytes(fProfileLocation, pb(nil).varint(fLocationID, 2).bytes(fLocationLine, line(11)))
	prof = prof.bytes(fProfileLocation, pb(nil).varint(fLocationID, 3).bytes(fLocationLine, line(12)))
	prof = prof.bytes(fProfileFunction, pb(nil).varint(fFunctionID, 10).varint(fFunctionName, 5))
	prof = prof.bytes(fProfileFunction, pb(nil).varint(fFunctionID, 11).varint(fFunctionName, 6))
	prof = prof.bytes(fProfileFunction, pb(nil).varint(fFunctionID, 12).varint(fFunctionName, 7))
	for _, s := range strs {
		prof = prof.bytes(fProfileStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	byPkg, total, err := leafShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total != 1000 {
		t.Errorf("total %v, want 1000", total)
	}
	shares := layerShares(byPkg)
	for layer, want := range map[string]float64{"cache": 0.3, "sim": 0.1, "runtime": 0.6} {
		if math.Abs(shares[layer]-want) > 1e-12 {
			t.Errorf("%s share %v, want %v", layer, shares[layer], want)
		}
	}
}

func TestLeafSharesRejectsGarbage(t *testing.T) {
	if _, _, err := leafShares([]byte("not a profile")); err == nil {
		t.Error("expected an error for a non-gzip profile")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x05, 0x01}) // sample field claiming 5 bytes, holding 1
	zw.Close()
	if _, _, err := leafShares(gz.Bytes()); err == nil {
		t.Error("expected an error for a truncated profile")
	}
}

// TestLeafSharesRealProfile decodes what runtime/pprof writes.
func TestLeafSharesRealProfile(t *testing.T) {
	prof, err := profiled(func() error {
		x := 0
		for i := 0; i < 50_000_000; i++ {
			x += i * i
		}
		sink = x
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	byPkg, _, err := leafShares(prof)
	if err != nil {
		t.Fatal(err)
	}
	s := 0.0
	for _, v := range byPkg {
		s += v
	}
	if len(byPkg) > 0 && math.Abs(s-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", s)
	}
}

var sink int
