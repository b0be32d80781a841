// Package ccov holds the statement-level line-coverage representation
// shared by the hwC execution backends (the cinterp tree-walker and the
// ccompile closure compiler).
//
// Coverage decides the "Dead code" row of Tables 3 and 4: a mutant that
// boots cleanly without ever executing its mutation site cannot be blamed
// on the driver. The experiment hot path queries a single line per boot,
// so the representation is a dense bitset — one word per 64 source lines —
// rather than a map: setting a line is one shift-and-or, querying one is a
// bounds check and a mask, and resetting between pooled boots is a memclr
// instead of a reallocation.
package ccov

import (
	"iter"
	"math/bits"
)

// Set is a dense set of executed source lines. The zero value is an empty
// set ready for use. Lines are 1-based like ctoken positions; line 0 (the
// "no position" marker) is never stored.
type Set struct {
	words []uint64
	n     int // number of lines set
}

// New returns a set pre-sized for lines up to maxLine, so the execution
// hot path never grows it.
func New(maxLine int) *Set {
	s := &Set{}
	s.Grow(maxLine)
	return s
}

// Grow ensures the set can hold lines up to maxLine without reallocating.
func (s *Set) Grow(maxLine int) {
	need := maxLine/64 + 1
	if need > len(s.words) {
		words := make([]uint64, need)
		copy(words, s.words)
		s.words = words
	}
}

// Add marks a line as executed. Non-positive lines are ignored, matching
// the interpreter's cover() guard.
func (s *Set) Add(line int) {
	if line <= 0 {
		return
	}
	w, bit := line/64, uint64(1)<<uint(line%64)
	if w >= len(s.words) {
		s.Grow(line)
	}
	if s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.n++
	}
}

// Covered reports whether a line was executed. A nil set covers nothing
// (a boot that died before execution has no coverage).
func (s *Set) Covered(line int) bool {
	if s == nil || line <= 0 {
		return false
	}
	w := line / 64
	return w < len(s.words) && s.words[w]&(1<<uint(line%64)) != 0
}

// Len returns the number of covered lines.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Reset empties the set in place, keeping its backing storage — the
// per-boot rewind of a pooled coverage buffer.
func (s *Set) Reset() {
	clear(s.words)
	s.n = 0
}

// Lines returns an iterator over the covered lines in ascending order.
// It allocates nothing: classification and diffing walk the bitset words
// directly.
func (s *Set) Lines() iter.Seq[int] {
	return func(yield func(int) bool) {
		if s == nil {
			return
		}
		for w, word := range s.words {
			for word != 0 {
				line := w*64 + bits.TrailingZeros64(word)
				if !yield(line) {
					return
				}
				word &= word - 1
			}
		}
	}
}

// Slice returns the covered lines as a sorted slice (test and report
// helper; the hot path uses Lines or Covered).
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Len())
	for line := range s.Lines() {
		out = append(out, line)
	}
	return out
}

// Equal reports whether two sets cover exactly the same lines; nil is
// the empty set.
func (s *Set) Equal(o *Set) bool {
	if s.Len() != o.Len() {
		return false
	}
	var long, short []uint64
	if s != nil {
		long = s.words
	}
	if o != nil {
		short = o.words
	}
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range long {
		var ow uint64
		if i < len(short) {
			ow = short[i]
		}
		if w != ow {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	out := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(out.words, s.words)
	return out
}
