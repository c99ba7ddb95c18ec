package tensor

import (
	"math"
	"testing"
)

// lmHeadWidth is the LM-head width of the profile models,
// tasks.GeneralVocab().Size() (tasks imports this package).
const lmHeadWidth = 167

// Inputs the bit-identity contract spells out. ±0 are skipped and
// subnormals go through the multiply like any other value; they are
// mixed in densely. NaN is not skipped, and a NaN or infinite input
// poisons every column, so at most one of those goes into a vector.
var (
	quietInputs = []float32{
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), // subnormals
	}
	poisonInputs = []float32{
		float32(math.NaN()), math.Float32frombits(0xffc12345),
		float32(math.Inf(1)), float32(math.Inf(-1)),
	}
)

// specialWeights are what a memory fault can leave in a weight: NaNs with
// their own payloads, infinities, subnormals and huge finite values. Each
// poisons only its own column.
var specialWeights = []float32{
	math.Float32frombits(0x7fc00001), math.Float32frombits(0x7f800001), // quiet and signalling NaN
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(3), math.MaxFloat32, -math.MaxFloat32,
}

// fillSpecial writes random values into v, with about one element in
// every drawn from specials.
func fillSpecial(v []float32, r *testRand, specials []float32, every int) {
	for i := range v {
		if r.next()%uint64(every) == 0 {
			v[i] = specials[r.next()%uint64(len(specials))]
		} else {
			v[i] = r.float()
		}
	}
}

// sameResults compares kernel outputs bit for bit, except that any two
// NaNs match: which payload survives when two NaNs meet in a multiply or
// add depends on operand order, which the Go compiler does not fix (it
// differs between the accumulators of matVecGeneric's own 8-column tile).
func sameResults(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}

// TestMatVecAVX2MatchesGeneric pins the assembly kernel bit for bit to
// matVecGeneric over every block layout (32/16/8 columns plus the Go
// tail), strided rows, and the values a fault leaves in inputs and
// weights: each shape runs without and with one poisoning input.
func TestMatVecAVX2MatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU has no AVX2 kernel")
	}
	widths := []int{64, 176, lmHeadWidth}
	for n := 1; n <= 40; n++ {
		widths = append(widths, n)
	}
	r := &testRand{s: 41}
	for _, n := range widths {
		for _, k := range []int{0, 1, 120} {
			for _, c := range []struct{ stride, poison int }{{n, -1}, {n + 5, -1}, {n, 0}, {n + 5, 1}} {
				stride := c.stride
				x := make([]float32, k)
				wd := make([]float32, k*stride)
				fillSpecial(x, r, quietInputs, 4)
				fillSpecial(wd, r, specialWeights, 50)
				if c.poison >= 0 && k > 0 {
					x[r.next()%uint64(k)] = poisonInputs[(c.poison+n)%len(poisonInputs)]
				}
				want := make([]float32, n)
				matVecGeneric(want, x, wd, stride)

				got := make([]float32, n)
				MatVecStrided(got, x, wd, stride)
				if !sameResults(got, want) {
					t.Fatalf("n=%d k=%d stride=%d: MatVecStrided differs from matVecGeneric", n, k, stride)
				}

				n8 := n &^ 7
				if n8 == 0 {
					continue
				}
				// The assembly alone, with a guard band past its columns
				// that it must leave untouched.
				buf := make([]float32, n8+8)
				for i := range buf {
					buf[i] = 42
				}
				matVecAVX2(buf[:n8], x, wd, stride)
				if !sameResults(buf[:n8], want[:n8]) {
					t.Fatalf("n=%d k=%d stride=%d: matVecAVX2 differs from matVecGeneric", n, k, stride)
				}
				for i, v := range buf[n8:] {
					if v != 42 {
						t.Fatalf("n=%d k=%d: matVecAVX2 wrote past its %d columns at %d", n, k, n8, n8+i)
					}
				}
			}
		}
	}
}

// TestMatVecStridedShortOperandPanics checks the length guard in front of
// the assembly, which itself checks no bounds.
func TestMatVecStridedShortOperandPanics(t *testing.T) {
	cases := []struct {
		name      string
		out, x    int
		wd        int
		stride    int
		wantPanic bool
	}{
		{"exact", 16, 3, 2*20 + 16, 20, false},
		{"no inputs", 16, 0, 0, 16, false},
		{"weights one short", 16, 3, 2*20 + 15, 20, true},
		{"last row missing", 16, 3, 2 * 20, 20, true},
		{"stride below width", 16, 3, 64, 8, true},
		{"negative stride", 16, 1, 16, -4, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := recover() != nil; got != c.wantPanic {
					t.Fatalf("panicked = %v, want %v", got, c.wantPanic)
				}
			}()
			MatVecStrided(make([]float32, c.out), make([]float32, c.x), make([]float32, c.wd), c.stride)
		})
	}
}
