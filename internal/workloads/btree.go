// Package workloads reproduces the paper's four evaluation workloads as
// memory-reference generators over the simulated address space:
//
//   - the synthetic scoreboard microbenchmark of Section 5.3.1;
//   - VolanoMark, an instant-messaging chat server with two designated
//     threads per connection (Section 5.3.2);
//   - SPECjbb2000, warehouses stored as B-tree variants with a fixed set
//     of threads per warehouse (Section 5.3.3);
//   - RUBiS, an online-auction OLTP database with two instances inside
//     one server process (Section 5.3.4).
//
// What matters for thread clustering is the *pattern* of accesses — which
// threads read and write which cache lines — so each generator allocates
// its data structures (scoreboards, room buffers, B-trees, tables) from a
// shared arena and emits the address streams those structures would
// produce. The SPECjbb and RUBiS workloads walk a real B-tree implemented
// over the simulated address space rather than a hand-waved distribution.
package workloads

import (
	"fmt"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
)

// BTreeOrder is the fan-out of the simulated B-tree: each node holds up to
// BTreeOrder-1 keys and BTreeOrder children.
const BTreeOrder = 16

// btreeNodeBytes is the simulated footprint of one node: key array plus
// child pointers, rounded to cache lines. 4 lines = 512 bytes.
const btreeNodeBytes = 4 * memory.LineSize

// BTree is a B-tree laid out in the simulated address space. It stores
// keys only (the workloads don't need values) and reports, for every
// operation, the exact sequence of simulated addresses the operation
// touched, so a workload generator can replay them as memory references.
//
// This is the warehouse structure of SPECjbb ("stored internally as a
// B-tree variant", Section 5.3.3) and the index structure of the RUBiS
// database tables.
type BTree struct {
	arena *memory.Arena
	root  *btreeNode
	size  int
	nodes int
}

// btreeNode keeps its keys and children in inline arrays; keys and
// children are views into them, so a node is a single allocation and
// never grows a backing array.
type btreeNode struct {
	region   memory.Region
	keys     []uint64
	children []*btreeNode
	leaf     bool
	keyBuf   [BTreeOrder - 1]uint64
	childBuf [BTreeOrder]*btreeNode
}

// NewBTree creates an empty tree allocating nodes from the arena.
func NewBTree(arena *memory.Arena) (*BTree, error) {
	if arena == nil {
		return nil, fmt.Errorf("workloads: btree needs an arena: %w", errs.ErrBadConfig)
	}
	t := &BTree{arena: arena}
	root, err := t.newNode(true)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *BTree) newNode(leaf bool) (*btreeNode, error) {
	r, err := t.arena.Alloc(btreeNodeBytes, memory.LineSize)
	if err != nil {
		return nil, err
	}
	t.nodes++
	n := &btreeNode{region: r, leaf: leaf}
	n.keys = n.keyBuf[:0]
	n.children = n.childBuf[:0]
	return n, nil
}

// Size returns the number of keys stored.
func (t *BTree) Size() int { return t.size }

// Nodes returns the number of allocated nodes.
func (t *BTree) Nodes() int { return t.nodes }

// RootLine returns the first line of the root node — the hottest line of
// the whole structure.
func (t *BTree) RootLine() memory.Addr { return t.root.region.Base }

// touchKeys appends to dst the addresses a key scan of the node touches:
// the node header line plus the line holding the scanned key slot.
func (n *btreeNode) touchKeys(dst []memory.Addr, slot int) []memory.Addr {
	header := n.region.Base
	// Keys are 8 bytes each, stored after a 16-byte header.
	off := uint64(16 + 8*slot)
	if off >= n.region.Size {
		off = n.region.Size - 8
	}
	keyLine := memory.LineOf(n.region.At(off))
	if keyLine == memory.LineOf(header) {
		return append(dst, header)
	}
	return append(dst, header, keyLine)
}

// Lookup finds a key and returns whether it exists along with the address
// trace of the search path.
func (t *BTree) Lookup(key uint64) (bool, []memory.Addr) {
	return t.lookupInto(key, nil)
}

// lookupInto is Lookup appending the search path's trace to dst, so a
// caller replaying many operations can reuse one trace buffer.
func (t *BTree) lookupInto(key uint64, dst []memory.Addr) (bool, []memory.Addr) {
	n := t.root
	for {
		i := 0
		for i < len(n.keys) && key > n.keys[i] {
			i++
		}
		dst = n.touchKeys(dst, i)
		if i < len(n.keys) && n.keys[i] == key {
			return true, dst
		}
		if n.leaf {
			return false, dst
		}
		n = n.children[i]
	}
}

// Insert adds a key (duplicates are ignored) and returns the address trace
// of the insertion, with the final leaf write included. The error is
// non-nil only when the arena is exhausted.
func (t *BTree) Insert(key uint64) ([]memory.Addr, error) {
	return t.insertInto(key, nil)
}

// insertInto is Insert appending the insertion's trace to dst.
func (t *BTree) insertInto(key uint64, dst []memory.Addr) ([]memory.Addr, error) {
	if len(t.root.keys) == maxKeys() {
		// Split the root: tree grows one level.
		newRoot, err := t.newNode(false)
		if err != nil {
			return dst, err
		}
		newRoot.children = append(newRoot.children, t.root)
		if dst, err = t.splitChild(newRoot, 0, dst); err != nil {
			return dst, err
		}
		t.root = newRoot
	}
	return t.insertNonFull(t.root, key, dst)
}

func maxKeys() int { return BTreeOrder - 1 }

func (t *BTree) insertNonFull(n *btreeNode, key uint64, trace []memory.Addr) ([]memory.Addr, error) {
	i := 0
	for i < len(n.keys) && key > n.keys[i] {
		i++
	}
	trace = n.touchKeys(trace, i)
	if i < len(n.keys) && n.keys[i] == key {
		return trace, nil // duplicate
	}
	if n.leaf {
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		t.size++
		// The leaf write itself.
		return n.touchKeys(trace, i), nil
	}
	if len(n.children[i].keys) == maxKeys() {
		var err error
		if trace, err = t.splitChild(n, i, trace); err != nil {
			return trace, err
		}
		if key > n.keys[i] {
			i++
		} else if key == n.keys[i] {
			return trace, nil
		}
	}
	return t.insertNonFull(n.children[i], key, trace)
}

// splitChild splits the full child n.children[i], promoting its median key
// into n, and appends the split's trace.
func (t *BTree) splitChild(n *btreeNode, i int, trace []memory.Addr) ([]memory.Addr, error) {
	child := n.children[i]
	mid := len(child.keys) / 2
	midKey := child.keys[mid]

	right, err := t.newNode(child.leaf)
	if err != nil {
		return trace, err
	}
	right.keys = append(right.keys, child.keys[mid+1:]...)
	child.keys = child.keys[:mid]
	if !child.leaf {
		right.children = append(right.children, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}

	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = midKey
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right

	// Splits touch all three nodes.
	return append(trace, child.region.Base, right.region.Base, n.region.Base), nil
}

// Height returns the tree height (1 for a lone leaf root).
func (t *BTree) Height() int {
	h, n := 1, t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

// CheckInvariants verifies B-tree structural invariants: key ordering
// within nodes, separator correctness, node fill bounds, and uniform leaf
// depth. Tests call it after bulk insertions.
func (t *BTree) CheckInvariants() error {
	leafDepth := -1
	var walk func(n *btreeNode, depth int, lo, hi *uint64) error
	walk = func(n *btreeNode, depth int, lo, hi *uint64) error {
		if len(n.keys) > maxKeys() {
			return fmt.Errorf("btree: node has %d keys, max %d", len(n.keys), maxKeys())
		}
		for i := 0; i < len(n.keys); i++ {
			if lo != nil && n.keys[i] <= *lo {
				return fmt.Errorf("btree: key %d not above separator %d", n.keys[i], *lo)
			}
			if hi != nil && n.keys[i] >= *hi {
				return fmt.Errorf("btree: key %d not below separator %d", n.keys[i], *hi)
			}
			if i > 0 && n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("btree: keys out of order: %d >= %d", n.keys[i-1], n.keys[i])
			}
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, depth)
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: %d children for %d keys", len(n.children), len(n.keys))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			}
			if err := walk(c, depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, 0, nil, nil)
}
