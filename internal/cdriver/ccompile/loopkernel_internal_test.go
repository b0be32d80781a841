package ccompile

import (
	"testing"

	"repro/internal/cdriver/cast"
)

// TestTruncToMatchesTruncFn pins the kernels' truncation switch to the
// closures' truncFn for every declared type kind.
func TestTruncToMatchesTruncFn(t *testing.T) {
	for k := cast.TypeVoid; k <= cast.TypeDevilStruct; k++ {
		tf := truncFn(cast.CType{Kind: k})
		for _, x := range []int64{0, 1, -1, 0x7f, 0x80, 0xff, 0x100, 0xffff, 0x1_0000, -0x8000_0001, 1 << 40} {
			want := x
			if tf != nil {
				want = tf(x)
			}
			if got := truncTo(k, x); got != want {
				t.Errorf("kind %d: truncTo(%#x) = %#x, truncFn gives %#x", k, x, got, want)
			}
		}
	}
}
