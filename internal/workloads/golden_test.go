package workloads

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/sim"
)

var updateStreams = flag.Bool("update-streams", false,
	"rewrite testdata/reference_streams.golden from the current generators")

const streamGoldenFile = "reference_streams.golden"

// Stream-golden shape: every thread emits streamChunk references per
// round, threads in id order, for streamRounds rounds. Threads of one
// warehouse or database instance share a B-tree, so the interleaving is
// part of what the digest pins.
const (
	streamRounds = 40
	streamChunk  = 500
)

type streamCase struct {
	name  string
	build func() (*Spec, error)
}

// streamCases are the generators the stream golden pins, at their
// default seeds; specjbb-8x8 is the Section 7.4 32-way configuration.
func streamCases() []streamCase {
	jbb32 := DefaultJBBConfig()
	jbb32.Warehouses, jbb32.ThreadsPerWarehouse = 8, 8
	return []streamCase{
		{"microbenchmark", func() (*Spec, error) { return NewSynthetic(memory.NewDefaultArena(), DefaultSyntheticConfig()) }},
		{"volano", func() (*Spec, error) { return NewVolano(memory.NewDefaultArena(), DefaultVolanoConfig()) }},
		{"specjbb", func() (*Spec, error) { return NewJBB(memory.NewDefaultArena(), DefaultJBBConfig()) }},
		{"specjbb-8x8", func() (*Spec, error) { return NewJBB(memory.NewDefaultArena(), jbb32) }},
		{"rubis", func() (*Spec, error) { return NewRubis(memory.NewDefaultArena(), DefaultRubisConfig()) }},
		{"staged", func() (*Spec, error) { return NewStaged(memory.NewDefaultArena(), DefaultStagedConfig()) }},
	}
}

// streamDigest hashes each thread's first streamRounds*streamChunk
// references and returns the sha256 of the per-thread digests in thread
// order.
func streamDigest(spec *Spec) string {
	hs := make([]hash.Hash, len(spec.Threads))
	for i := range hs {
		hs[i] = sha256.New()
	}
	var buf [41]byte
	for r := 0; r < streamRounds; r++ {
		for i, th := range spec.Threads {
			for k := 0; k < streamChunk; k++ {
				ref := th.Gen.Next()
				encodeRef(&buf, ref)
				hs[i].Write(buf[:])
			}
		}
	}
	all := sha256.New()
	for _, h := range hs {
		all.Write(h.Sum(nil))
	}
	return hex.EncodeToString(all.Sum(nil))
}

func encodeRef(buf *[41]byte, ref sim.MemRef) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(ref.Addr))
	buf[8] = 0
	if ref.Write {
		buf[8] = 1
	}
	binary.LittleEndian.PutUint64(buf[9:], ref.Insts)
	binary.LittleEndian.PutUint64(buf[17:], ref.BranchStall)
	binary.LittleEndian.PutUint64(buf[25:], ref.OtherStall)
	binary.LittleEndian.PutUint64(buf[33:], ref.Ops)
}

// TestReferenceStreamGolden pins every generator's reference stream
// byte for byte. Host-side optimizations of the generators (buffer
// reuse, node layout) must not move a single MemRef; a digest change
// means the simulated workload itself changed. Regenerate only for an
// intended semantic change:
//
//	go test ./internal/workloads -run TestReferenceStreamGolden -update-streams
func TestReferenceStreamGolden(t *testing.T) {
	path := filepath.Join("testdata", streamGoldenFile)
	got := make(map[string]string)
	var names []string
	for _, w := range streamCases() {
		spec, err := w.build()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got[w.name] = streamDigest(spec)
		names = append(names, w.name)
	}
	if *updateStreams {
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing stream golden (regenerate with -update-streams): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if want[n] == "" {
			t.Errorf("%s: no golden digest", n)
		} else if got[n] != want[n] {
			t.Errorf("%s: reference stream digest %s, golden %s", n, got[n], want[n])
		}
	}
}
