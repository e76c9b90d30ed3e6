package trace

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// shortestMismatches compares appendShortest with its oracle,
// strconv.AppendFloat(…, 'g', -1, 64), on each x and reports the first few
// differences; it returns how many differed.
func shortestMismatches(t *testing.T, xs ...float64) int {
	t.Helper()
	bad := 0
	for _, x := range xs {
		got := string(appendShortest([]byte("row,"), x))
		want := string(strconv.AppendFloat([]byte("row,"), x, 'g', -1, 64))
		if got != want {
			if bad++; bad <= 10 {
				t.Errorf("appendShortest(%#016x) = %q, strconv = %q", math.Float64bits(x), got, want)
			}
		}
	}
	return bad
}

// ulpNeighbours returns x and the floats one unit in the last place below
// and above it, by bits.
func ulpNeighbours(x float64) []float64 {
	b := math.Float64bits(x)
	return []float64{math.Float64frombits(b - 1), x, math.Float64frombits(b + 1)}
}

// TestAppendShortest checks the writer against strconv on the values
// where shortest-digit algorithms go wrong: every power of 2 and of 10 at
// ±1 ulp, interval bounds that are themselves short decimals, ties, the
// 'g' layout switch, tiny subnormals, specials, and 2^20 random bit
// patterns.
func TestAppendShortest(t *testing.T) {
	var xs []float64
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1, -1, 0.07, 29.99000000000189, 10.010000000000002, 1e23, 9007199254740993,
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, math.SmallestNonzeroFloat64,
		// Both sides of the %e/%f switch, and 1-, 2- and 3-digit exponents.
		1e-4, 1e-5, 0.00012345, 0.000012345, 999999, 1e6, 123456.7, 1234567.8, 1e21, 1e100, 1e-100,
	} {
		xs = append(xs, x, -x)
	}
	for e := -1074; e <= 1023; e++ {
		xs = append(xs, ulpNeighbours(math.Ldexp(1, e))...)
	}
	for e := -323; e <= 308; e++ {
		x, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, ulpNeighbours(x)...)
	}
	// Tiny subnormals: Go prints 5e-324 and 8e-323, where Schubfach's
	// two-digit rule and an unguarded prototype printed 4.9e-324 and
	// 7.9e-323.
	for m := uint64(1); m <= 4096; m++ {
		xs = append(xs, math.Float64frombits(m), math.Float64frombits(1<<52-m))
	}
	xs = append(xs, boundaryDecimals()...)
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	// Short decimals and their neighbours, the shape of recorded times
	// and of many values.
	for i := 0; i < 1<<16; i++ {
		d := rng.Int63n(1_000_000_000_000_000) >> uint(rng.Intn(56))
		x, err := strconv.ParseFloat(strconv.FormatInt(d, 10)+"e"+strconv.Itoa(rng.Intn(60)-30), 64)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, ulpNeighbours(x)...)
	}
	if bad := shortestMismatches(t, xs...); bad > 0 {
		t.Errorf("%d of %d floats differ from strconv", bad, len(xs))
	}
}

// boundaryDecimals returns normal floats c·2^q one of whose rounding
// interval bounds, (2c∓1)·2^(q-1), is exactly a multiple of 10^j: there
// the interval's inclusivity (even c includes its bounds, odd c excludes
// them) decides between a shorter and a longer decimal. The bound is a
// multiple of 10^j when 5^j divides 2c∓1 and j < q.
func boundaryDecimals() []float64 {
	var xs []float64
	for q := 1; q <= 80; q++ {
		p5 := uint64(1)
		for j := 1; j < q && j <= 22; j++ {
			p5 *= 5
			lo, hi := (1<<53+p5)/p5, (1<<54-p5)/p5
			for _, m := range []uint64{lo, lo + 1, lo + 2, lo + 3, (lo+hi)/2 - 1, (lo + hi) / 2, (lo+hi)/2 + 1, (lo+hi)/2 + 2, hi - 3, hi - 2, hi - 1, hi} {
				if m%2 == 0 {
					continue
				}
				for _, c := range []uint64{(p5*m + 1) / 2, (p5*m - 1) / 2} {
					if c >= 1<<52 && c < 1<<53 {
						xs = append(xs, math.Float64frombits(uint64(q+1075)<<52|c&(1<<52-1)))
					}
				}
			}
		}
	}
	return xs
}

// FuzzAppendShortest compares the writer with strconv on raw float64 bits.
func FuzzAppendShortest(f *testing.F) {
	for _, b := range []uint64{
		0, 1 << 63, 1, 16, 1<<52 - 1, 1 << 52, 0x7ff0000000000000, 0xfff0000000000000,
		0x7ff8000000000001, 0x3ff0000000000000, 0x44b52d02c7e14af6, // 1e23
		0x7fefffffffffffff, 0x403dfd70a3d70c51, // 29.99000000000189
		0x3fb1eb851eb851ec, // 0.07
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		shortestMismatches(t, math.Float64frombits(b))
	})
}

// TestPow10Table recomputes every entry of pow10g with math/big, and
// checks the fixed-point logarithms schubfach uses to index it over the
// whole exponent range of normal floats.
func TestPow10Table(t *testing.T) {
	one := big.NewInt(1)
	ten := big.NewInt(10)
	for k := pow10MinK; k <= pow10MaxK; k++ {
		// 10^-k = num/den; find r with 2^125 <= 10^-k / 2^r < 2^126.
		num, den := big.NewInt(1), big.NewInt(1)
		if k <= 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		r := num.BitLen() - den.BitLen() - 126
		var beta *big.Int
		for {
			n, d := new(big.Int).Set(num), new(big.Int).Set(den)
			if r >= 0 {
				d.Lsh(d, uint(r))
			} else {
				n.Lsh(n, uint(-r))
			}
			beta = n.Quo(n, d)
			if beta.BitLen() <= 126 {
				break
			}
			r++
		}
		if beta.BitLen() != 126 {
			t.Fatalf("k=%d: floor(beta) has %d bits, want 126", k, beta.BitLen())
		}
		g := beta.Add(beta, one)
		g1 := new(big.Int).Rsh(g, 63)
		g0 := new(big.Int).Sub(g, new(big.Int).Lsh(g1, 63))
		if got := pow10g[k-pow10MinK]; got[0] != g1.Uint64() || got[1] != g0.Uint64() {
			t.Errorf("pow10g[k=%d] = {%#x, %#x}, want {%#x, %#x}", k, got[0], got[1], g1.Uint64(), g0.Uint64())
		}
	}

	// pow2 returns 2^e as a rational, pow10 likewise 10^e.
	pow2 := func(e int) *big.Rat {
		if e >= 0 {
			return new(big.Rat).SetInt(new(big.Int).Lsh(one, uint(e)))
		}
		return new(big.Rat).SetFrac(one, new(big.Int).Lsh(one, uint(-e)))
	}
	pow10 := func(e int) *big.Rat {
		if e >= 0 {
			return new(big.Rat).SetInt(new(big.Int).Exp(ten, big.NewInt(int64(e)), nil))
		}
		return new(big.Rat).SetFrac(one, new(big.Int).Exp(ten, big.NewInt(int64(-e)), nil))
	}
	// floorLog10 reports whether k = floor(log10(x)).
	floorLog10 := func(k int, x *big.Rat) bool {
		return pow10(k).Cmp(x) <= 0 && x.Cmp(pow10(k+1)) < 0
	}
	threeQuarters := big.NewRat(3, 4)
	for q := -1074; q <= 971; q++ {
		ks := []int{q * 661971961083 >> 41}
		if !floorLog10(ks[0], pow2(q)) {
			t.Fatalf("q=%d: %d is not floor(q·log10(2))", q, ks[0])
		}
		if q > -1074 {
			k := (q*661971961083 - 274743187321) >> 41
			if !floorLog10(k, new(big.Rat).Mul(threeQuarters, pow2(q))) {
				t.Fatalf("q=%d: %d is not floor(q·log10(2) + log10(3/4))", q, k)
			}
			ks = append(ks, k)
		}
		for _, k := range ks {
			if k < pow10MinK || k > pow10MaxK {
				t.Fatalf("q=%d: k=%d outside the table", q, k)
			}
			// floor(-k·log2(10)) = e with 2^e <= 10^-k < 2^(e+1), and the
			// shift h keeps 4(2^53-1)+2 << h below 2^63.
			e := (-k * 1741647) >> 19
			if p := pow10(-k); pow2(e).Cmp(p) > 0 || p.Cmp(pow2(e+1)) >= 0 {
				t.Fatalf("k=%d: %d is not floor(-k·log2(10))", k, e)
			}
			if h := q + e + 2; h < 0 || h > 7 {
				t.Fatalf("q=%d k=%d: shift %d out of range", q, k, h)
			}
		}
	}
}
