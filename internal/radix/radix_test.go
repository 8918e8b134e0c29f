package radix

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// checkSorted64 verifies keys are ascending and that the (key, val) pairing
// matches the reference obtained by a stable comparison sort.
func checkSorted64(t *testing.T, origK []uint64, origV []uint32, keys []uint64, vals []uint32) {
	t.Helper()
	type pair struct {
		k uint64
		v uint32
	}
	ref := make([]pair, len(origK))
	for i := range ref {
		ref[i] = pair{origK[i], origV[i]}
	}
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].k < ref[j].k })
	for i := range ref {
		if keys[i] != ref[i].k || vals[i] != ref[i].v {
			t.Fatalf("index %d: got (%d,%d) want (%d,%d)", i, keys[i], vals[i], ref[i].k, ref[i].v)
		}
	}
}

func randPairs(rng *rand.Rand, n int, keyBits uint) ([]uint64, []uint32) {
	keys := make([]uint64, n)
	vals := make([]uint32, n)
	mask := ^uint64(0)
	if keyBits < 64 {
		mask = uint64(1)<<keyBits - 1
	}
	for i := range keys {
		keys[i] = rng.Uint64() & mask
		vals[i] = uint32(i)
	}
	return keys, vals
}

func TestSortPairs64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 10, 1000, 4096} {
		for _, bits := range []uint{8, 16, 54, 64} {
			keys, vals := randPairs(rng, n, bits)
			origK := append([]uint64(nil), keys...)
			origV := append([]uint32(nil), vals...)
			tmpK := make([]uint64, n)
			tmpV := make([]uint32, n)
			SortPairs64(keys, vals, tmpK, tmpV, 8)
			checkSorted64(t, origK, origV, keys, vals)
		}
	}
}

func TestSortPairs64Stability(t *testing.T) {
	// Payloads of equal keys must keep input order (LSD radix is stable;
	// the pipeline's read-graph edge generation relies only on grouping,
	// but stability is part of the §4.2.2 baseline contract).
	keys := []uint64{5, 1, 5, 1, 5}
	vals := []uint32{0, 1, 2, 3, 4}
	SortPairs64(keys, vals, make([]uint64, 5), make([]uint32, 5), 8)
	wantK := []uint64{1, 1, 5, 5, 5}
	wantV := []uint32{1, 3, 0, 2, 4}
	for i := range wantK {
		if keys[i] != wantK[i] || vals[i] != wantV[i] {
			t.Fatalf("got %v/%v want %v/%v", keys, vals, wantK, wantV)
		}
	}
}

func TestSortPairs64FewPasses(t *testing.T) {
	// With passes=2 only the low 16 bits need to be ordered.
	rng := rand.New(rand.NewSource(2))
	keys, vals := randPairs(rng, 500, 16)
	origK := append([]uint64(nil), keys...)
	origV := append([]uint32(nil), vals...)
	SortPairs64(keys, vals, make([]uint64, 500), make([]uint32, 500), 2)
	checkSorted64(t, origK, origV, keys, vals)
}

func TestSortPairs64Property(t *testing.T) {
	f := func(keys []uint64) bool {
		n := len(keys)
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(i)
		}
		orig := append([]uint64(nil), keys...)
		SortPairs64(keys, vals, make([]uint64, n), make([]uint32, n), 8)
		// Sorted, a permutation, and payloads still point at equal keys.
		for i := 1; i < n; i++ {
			if keys[i-1] > keys[i] {
				return false
			}
		}
		for i := range keys {
			if orig[vals[i]] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSortPairs64Digit16(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 17, 2000} {
		keys, vals := randPairs(rng, n, 64)
		origK := append([]uint64(nil), keys...)
		origV := append([]uint32(nil), vals...)
		SortPairs64Digit16(keys, vals, make([]uint64, n), make([]uint32, n), 4)
		checkSorted64(t, origK, origV, keys, vals)
	}
}

func TestSortPairs64AllEqual(t *testing.T) {
	keys := make([]uint64, 100)
	vals := make([]uint32, 100)
	for i := range keys {
		keys[i] = 42
		vals[i] = uint32(i)
	}
	SortPairs64(keys, vals, make([]uint64, 100), make([]uint32, 100), 8)
	for i := range keys {
		if keys[i] != 42 || vals[i] != uint32(i) {
			t.Fatal("all-equal input was disturbed")
		}
	}
}

func TestSortPairs128(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 2, 100, 3000} {
		hi := make([]uint64, n)
		lo := make([]uint64, n)
		vals := make([]uint32, n)
		for i := 0; i < n; i++ {
			// Small hi ranges force ties that exercise the lo ordering.
			hi[i] = uint64(rng.Intn(4))
			lo[i] = rng.Uint64()
			vals[i] = uint32(i)
		}
		type trip struct {
			h, l uint64
			v    uint32
		}
		ref := make([]trip, n)
		for i := range ref {
			ref[i] = trip{hi[i], lo[i], vals[i]}
		}
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].h != ref[j].h {
				return ref[i].h < ref[j].h
			}
			return ref[i].l < ref[j].l
		})
		SortPairs128(hi, lo, vals, make([]uint64, n), make([]uint64, n), make([]uint32, n), 16)
		for i := range ref {
			if hi[i] != ref[i].h || lo[i] != ref[i].l || vals[i] != ref[i].v {
				t.Fatalf("n=%d index %d: got (%d,%d,%d) want (%d,%d,%d)",
					n, i, hi[i], lo[i], vals[i], ref[i].h, ref[i].l, ref[i].v)
			}
		}
	}
}

func TestBaselineSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, workers := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{0, 1, 2, 5, 1000, 4097} {
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64() >> uint(rng.Intn(40))
				vals[i] = uint64(i)
			}
			type pair struct{ k, v uint64 }
			ref := make([]pair, n)
			for i := range ref {
				ref[i] = pair{keys[i], vals[i]}
			}
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].k < ref[j].k })
			BaselineSort(keys, vals, make([]uint64, n), make([]uint64, n), workers)
			for i := range ref {
				if keys[i] != ref[i].k || vals[i] != ref[i].v {
					t.Fatalf("workers=%d n=%d index %d: got (%d,%d) want (%d,%d)",
						workers, n, i, keys[i], vals[i], ref[i].k, ref[i].v)
				}
			}
		}
	}
}

func TestBaselineSortMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 10000
	keys, vals32 := randPairs(rng, n, 64)
	keysB := append([]uint64(nil), keys...)
	valsB := make([]uint64, n)
	for i := range valsB {
		valsB[i] = uint64(vals32[i])
	}
	SortPairs64(keys, vals32, make([]uint64, n), make([]uint32, n), 8)
	BaselineSort(keysB, valsB, make([]uint64, n), make([]uint64, n), 4)
	for i := range keys {
		if keys[i] != keysB[i] || uint64(vals32[i]) != valsB[i] {
			t.Fatalf("index %d: serial (%d,%d) vs baseline (%d,%d)",
				i, keys[i], vals32[i], keysB[i], valsB[i])
		}
	}
}

func benchSort(b *testing.B, n int, fn func(keys []uint64, vals []uint32)) {
	rng := rand.New(rand.NewSource(1))
	keys, vals := randPairs(rng, n, 54) // 27-mer keys occupy 54 bits
	work := make([]uint64, n)
	workV := make([]uint32, n)
	b.SetBytes(int64(n * 12)) // paper counts 12-byte tuples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, keys)
		copy(workV, vals)
		b.StartTimer()
		fn(work, workV)
	}
}

func BenchmarkSortPairs64_1e6(b *testing.B) {
	n := 1 << 20
	tmpK := make([]uint64, n)
	tmpV := make([]uint32, n)
	benchSort(b, n, func(k []uint64, v []uint32) { SortPairs64(k, v, tmpK, tmpV, 8) })
}

func BenchmarkSortPairs64Digit16_1e6(b *testing.B) {
	n := 1 << 20
	tmpK := make([]uint64, n)
	tmpV := make([]uint32, n)
	benchSort(b, n, func(k []uint64, v []uint32) { SortPairs64Digit16(k, v, tmpK, tmpV, 4) })
}

func BenchmarkBaselineSort_1e6(b *testing.B) {
	n := 1 << 20
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() & (1<<54 - 1)
		vals[i] = uint64(i)
	}
	work := make([]uint64, n)
	workV := make([]uint64, n)
	tmpK := make([]uint64, n)
	tmpV := make([]uint64, n)
	b.SetBytes(int64(n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, keys)
		copy(workV, vals)
		b.StartTimer()
		BaselineSort(work, workV, tmpK, tmpV, 1)
	}
}

func BenchmarkSortPairs128_1e6(b *testing.B) {
	n := 1 << 20
	rng := rand.New(rand.NewSource(1))
	hi := make([]uint64, n)
	lo := make([]uint64, n)
	vals := make([]uint32, n)
	for i := range hi {
		hi[i] = rng.Uint64() & (1<<62 - 1)
		lo[i] = rng.Uint64()
		vals[i] = uint32(i)
	}
	workH := make([]uint64, n)
	workL := make([]uint64, n)
	workV := make([]uint32, n)
	tmpH := make([]uint64, n)
	tmpL := make([]uint64, n)
	tmpV := make([]uint32, n)
	b.SetBytes(int64(n * 20)) // paper's 20-byte 63-mer tuples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(workH, hi)
		copy(workL, lo)
		copy(workV, vals)
		b.StartTimer()
		SortPairs128(workH, workL, workV, tmpH, tmpL, tmpV, 16)
	}
}

func TestSortKeys64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 1000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		want := append([]uint64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		SortKeys64(keys, make([]uint64, n), 8)
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("n=%d index %d: %d != %d", n, i, keys[i], want[i])
			}
		}
	}
}

// --- key-range-aware entry points -----------------------------------------

func TestSignificantBytes64(t *testing.T) {
	cases := []struct {
		min, max uint64
		want     int
	}{
		{0, 0, 0},
		{7, 7, 0},
		{0, 1, 1},
		{0, 255, 1},
		{0, 256, 2},
		{0, 1<<54 - 1, 7},
		{0, ^uint64(0), 8},
		{1 << 53, 1<<54 - 1, 7},     // shared top bit region still spans 53 low bits
		{1 << 60, 1<<60 | 0xFF, 1},  // high bits pinned, one live byte
		{1 << 60, 1<<60 | 0x1FF, 2}, // 9 live bits
	}
	for _, c := range cases {
		if got := SignificantBytes64(c.min, c.max); got != c.want {
			t.Errorf("SignificantBytes64(%#x, %#x) = %d, want %d", c.min, c.max, got, c.want)
		}
	}
}

func TestSignificantBytes128(t *testing.T) {
	cases := []struct {
		minHi, minLo, maxHi, maxLo uint64
		want                       int
	}{
		{0, 0, 0, 0, 0},
		{0, 0, 0, ^uint64(0), 8},
		{0, 0, 1, 0, 9},
		{0, 0, 1<<62 - 1, ^uint64(0), 16},
		{3, 0, 3, 255, 1},
		{1 << 40, 0, 1<<40 | 1, 0, 9}, // hi words differ in bit 0 → 64+1 bits
	}
	for _, c := range cases {
		if got := SignificantBytes128(c.minHi, c.minLo, c.maxHi, c.maxLo); got != c.want {
			t.Errorf("SignificantBytes128(%#x,%#x, %#x,%#x) = %d, want %d",
				c.minHi, c.minLo, c.maxHi, c.maxLo, got, c.want)
		}
	}
}

func TestSortPairs64Range(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 2, 100, 3000, Digit16MinLen + 1} {
		for _, bits := range []uint{1, 16, 38, 54, 64} {
			keys, vals := randPairs(rng, n, bits)
			origK := append([]uint64(nil), keys...)
			origV := append([]uint32(nil), vals...)
			max := ^uint64(0)
			if bits < 64 {
				max = uint64(1)<<bits - 1
			}
			SortPairs64Range(keys, vals, make([]uint64, n), make([]uint32, n), 0, max)
			checkSorted64(t, origK, origV, keys, vals)
		}
	}
}

func TestSortPairs64RangePinnedHighBits(t *testing.T) {
	// Keys share a fixed high prefix; the range sort must still order the
	// live low bits (and may skip the pinned passes).
	rng := rand.New(rand.NewSource(7))
	const base = uint64(0xABC) << 40
	n := 5000
	keys, vals := randPairs(rng, n, 40)
	for i := range keys {
		keys[i] |= base
	}
	origK := append([]uint64(nil), keys...)
	origV := append([]uint32(nil), vals...)
	SortPairs64Range(keys, vals, make([]uint64, n), make([]uint32, n), base, base|(uint64(1)<<40-1))
	checkSorted64(t, origK, origV, keys, vals)
}

func TestSortPairs128Passes(t *testing.T) {
	// With high words all equal, 8 passes (the lo word) must fully sort.
	rng := rand.New(rand.NewSource(10))
	n := 2000
	hi := make([]uint64, n)
	lo := make([]uint64, n)
	vals := make([]uint32, n)
	for i := 0; i < n; i++ {
		hi[i] = 99
		lo[i] = rng.Uint64()
		vals[i] = uint32(i)
	}
	origL := append([]uint64(nil), lo...)
	origV := append([]uint32(nil), vals...)
	SortPairs128(hi, lo, vals, make([]uint64, n), make([]uint64, n), make([]uint32, n), 8)
	checkSorted64(t, origL, origV, lo, vals)
	for i := range hi {
		if hi[i] != 99 {
			t.Fatal("hi words disturbed")
		}
	}
}
