package trace

import (
	"math"
	"math/bits"
	"strconv"
)

// The range of k in pow10g: floor(q·log10(2)) over the binary exponents q
// of normal float64s, and floor(q·log10(2) + log10(3/4)) for the
// significand 2^52, whose lower neighbour is half as far as its upper one.
const (
	pow10MinK = -324
	pow10MaxK = 292
)

// digitPairs is "00" through "99", two bytes per pair.
const digitPairs = "" +
	"00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendShortest appends x exactly as strconv.AppendFloat(b, x, 'g', -1,
// 64) does: the shortest decimal that rounds to x, the one nearest x when
// several are that short (a tie goes to the even last digit), in %e form
// when its decimal exponent is below -4 or at least 6 and in %f form
// otherwise. Schubfach (Giulietti 2020, the structure of the JDK's
// DoubleToDecimal) finds the digits, which are written straight into b.
// NaN, ±Inf and subnormals go to strconv.
func appendShortest(b []byte, x float64) []byte {
	u := math.Float64bits(x)
	be := int(u>>52) & 0x7ff
	t := u & (1<<52 - 1)
	if be == 0x7ff || be == 0 && t != 0 {
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	if u>>63 != 0 {
		b = append(b, '-')
	}
	if be == 0 {
		return append(b, '0')
	}
	c, q := 1<<52|t, be-1075
	var f uint64
	var e int
	if -53 < q && q < 0 && c&(1<<uint(-q)-1) == 0 {
		f = c >> uint(-q) // an integer below 2^53 is its own shortest decimal
	} else {
		f, e = schubfach(q, c)
	}

	// f's digits, right-aligned in d, eight at a time in 32-bit
	// arithmetic while f has more, then stripped of trailing zeros.
	var d [24]byte
	i := len(d)
	for f >= 1e8 {
		hi := f / 1e8
		lo := uint32(f - hi*1e8)
		f = hi
		i -= 8
		put4(d[i+4:], lo%1e4)
		put4(d[i:], lo/1e4)
	}
	w := uint32(f)
	for w >= 100 {
		r := w % 100
		w /= 100
		i -= 2
		d[i], d[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if w >= 10 {
		i -= 2
		d[i], d[i+1] = digitPairs[2*w], digitPairs[2*w+1]
	} else {
		i--
		d[i] = byte(w) + '0'
	}
	end := len(d)
	for d[end-1] == '0' {
		end--
	}
	digits := d[i:end]
	n := len(digits)
	dp := n + e + len(d) - end // x = 0.digits × 10^dp

	switch exp := dp - 1; {
	case exp < -4 || exp >= 6:
		b = append(b, digits[0])
		if n > 1 {
			b = append(b, '.')
			b = append(b, digits[1:]...)
		}
		b = append(b, 'e', '+')
		if exp < 0 {
			b[len(b)-1] = '-'
			exp = -exp
		}
		if exp >= 100 {
			b = append(b, byte(exp/100)+'0')
			exp %= 100
		}
		return append(b, digitPairs[2*exp], digitPairs[2*exp+1])
	case dp <= 0:
		b = append(b, '0', '.')
		for ; dp < 0; dp++ {
			b = append(b, '0')
		}
		return append(b, digits...)
	case dp >= n:
		b = append(b, digits...)
		for ; n < dp; n++ {
			b = append(b, '0')
		}
		return b
	default:
		b = append(b, digits[:dp]...)
		b = append(b, '.')
		return append(b, digits[dp:]...)
	}
}

// put4 writes v < 10^4 as four digits.
func put4(d []byte, v uint32) {
	hi, lo := v/100, v%100
	_ = d[3]
	d[0], d[1] = digitPairs[2*hi], digitPairs[2*hi+1]
	d[2], d[3] = digitPairs[2*lo], digitPairs[2*lo+1]
}

// schubfach returns f and e such that f·10^e is the shortest decimal in
// the rounding interval of the normal float64 c·2^q, the nearest to it
// when two are that short, ties to an even f. f may end in zeros. The
// names follow Giulietti's paper: vb, vbl and vbr are 4·10^-k times the
// value and its interval bounds, rounded to odd.
func schubfach(q int, c uint64) (uint64, int) {
	// An even significand's interval includes its bounds, since they
	// round to it; an odd one's excludes them.
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	var k int
	if c != 1<<52 || q == -1074 {
		k = q * 661971961083 >> 41 // floor(q·log10(2))
	} else {
		cbl = cb - 1
		k = (q*661971961083 - 274743187321) >> 41 // floor(q·log10(2) + log10(3/4))
	}
	h := q + (-k*1741647)>>19 + 2 // q + floor(-k·log2(10)) + 2
	g := &pow10g[k-pow10MinK]
	vb := roundToOdd(g[0], g[1], cb<<h)
	vbl := roundToOdd(g[0], g[1], cbl<<h)
	vbr := roundToOdd(g[0], g[1], cbr<<h)

	// The interval is narrower than 10·10^k, so it holds at most one
	// multiple of 10^(k+1); if it does, that one is shortest.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	// Otherwise s or s+1, both k-digit candidates, whichever fits, or the
	// nearer when both do.
	uin := vbl+out <= s<<2
	win := (s+1)<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return s + 1, k
	}
	if mid := s<<2 + 2; vb < mid || vb == mid && s&1 == 0 {
		return s, k
	}
	return s + 1, k
}

// roundToOdd returns g·cp / 2^127 for g = g1·2^63 + g0, rounded down with
// the lowest bit set when the quotient is not an integer.
func roundToOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	v := y1 + z>>63
	return v | (z&(1<<63-1)+(1<<63-1))>>63
}
