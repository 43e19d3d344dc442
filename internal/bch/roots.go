package bch

import "xlnand/internal/gf"

// ChienSearch finds the error positions encoded in the locator polynomial
// lambda for a (possibly shortened) codeword of nbits bits. It returns the
// bit indices (0 = first transmitted bit = coefficient of x^(nbits-1)) of
// every error in ascending order, or ok = false (positions unspecified)
// unless lambda has exactly deg(lambda) distinct roots, all of them inside
// the valid position range — anything else is the uncorrectable-pattern
// signature.
//
// An error at polynomial degree d (0 <= d < nbits) has locator X = alpha^d
// and manifests as lambda(alpha^-d) = 0. The name is the decoding stage's
// (Fig. 2): the modelled controller finds these roots with the paper's
// h-parallel Chien block (HWConfig.ChienCycles), and the verdict is the
// one a scan of the nbits candidate exponents reaches by counting. The
// host does not scan; see locatorRoots.
func ChienSearch(f *gf.Field, lambda []uint32, nbits int) (positions []int, ok bool) {
	return locatorRoots(f, lambda, nbits, nil, make([]uint16, rootScratchLen(f.M(), len(lambda)-1)))
}

// rootScratchLen is the number of uint16 words locatorRoots needs to
// factor a locator of degree deg over GF(2^m): the Frobenius ladder
// (m+1 rows), the even-power reduction table (deg/2 rows), the trace
// polynomial, two factor lists with their degrees, and two Euclid
// operands — 7.1 KB at m = 16, deg = 65.
func rootScratchLen(m, deg int) int {
	if deg < 2 {
		return 0
	}
	return (m+1+deg/2+5)*deg + 2*(deg+1)
}

// locatorRoots is the allocation-free kernel behind ChienSearch: found
// positions are appended to pos (pass a reusable pos[:0] slice) in
// ascending order, and work is scratch of at least
// rootScratchLen(f.M(), deg(lambda)) words.
//
// The roots are found algebraically, at a cost that depends on the
// locator's degree nu and not on the codeword length:
//
//   - a degree-1 locator is solved in closed form (d = log lambda_1 -
//     log lambda_0), so the dominant single-error page does no polynomial
//     arithmetic at all;
//   - otherwise lambda is made monic and the Frobenius ladder
//     x^(2^k) mod lambda, k = 0..m, is built by repeated squaring
//     (squaring is coefficient-wise in characteristic 2; the overflow
//     terms reduce through a table of x^j mod lambda for even j in
//     [nu, 2nu-2]) — O(m·nu^2) field multiplies;
//   - x^(2^m) = x (mod lambda) holds exactly when lambda is square-free
//     and splits over GF(2^m); with lambda_0 != 0 that is "nu distinct
//     nonzero roots", so everything else is rejected here, before any
//     root is computed;
//   - Berlekamp's trace algorithm then separates the roots: Tr(beta·x)
//     is 0 or 1 at every field element, so gcd(g, Tr(beta·x) mod g)
//     collects the roots of g with trace 0, and over the polynomial
//     basis beta = alpha^0..alpha^(m-1) any two distinct roots part
//     company. Tr(beta·x) mod lambda is a linear combination of the
//     ladder rows; each is computed at most once, and only while some
//     factor is still not linear.
func locatorRoots(f *gf.Field, lambda []uint32, nbits int, pos []int, work []uint16) (positions []int, ok bool) {
	nu := len(lambda) - 1
	for nu > 0 && lambda[nu] == 0 {
		nu--
	}
	if nu <= 0 {
		return pos, true // no errors located
	}
	N := f.N()
	if nbits > N || lambda[0] == 0 {
		return pos, false // the root x = 0 names no position
	}
	log, exp := f.Tables()
	if nu == 1 {
		// lambda_0 + lambda_1 x has the lone root x = lambda_0/lambda_1 =
		// alpha^-d, i.e. d = log lambda_1 - log lambda_0.
		d := (int(log[lambda[1]]) - int(log[lambda[0]]) + N) % N
		if d >= nbits {
			return pos, false // root outside the shortened codeword
		}
		return append(pos, nbits-1-d), true
	}

	m := f.M()
	take := func(n int) []uint16 {
		s := work[:n:n]
		work = work[n:]
		return s
	}
	ladder, pow, tr := take((m+1)*nu), take(nu/2*nu), take(nu)
	fac, next, deg, ndeg := take(nu), take(nu), take(nu), take(nu)
	u, v := take(nu+1), take(nu+1)

	// g = lambda/lambda_nu, as its nu low coefficients: the first (and so
	// far only) entry of the factor list.
	g := fac
	linv := N - int(log[lambda[nu]])
	for i := range g {
		g[i] = 0
		if c := lambda[i]; c != 0 {
			g[i] = exp[linv+int(log[c])]
		}
	}

	// pow row r is x^(j0+2r) mod g, j0 the least even j >= nu; x^nu mod g
	// is g's own low coefficients, and each further power is one
	// shift-and-reduce.
	timesX := func(p []uint16) {
		top := p[nu-1]
		copy(p[1:], p[:nu-1])
		p[0] = 0
		if top != 0 {
			mulAcc(p, g, top, log, exp)
		}
	}
	j0 := nu + nu&1
	copy(pow, g)
	if j0 > nu {
		timesX(pow[:nu])
	}
	for r := nu; r < len(pow); r += nu {
		row := pow[r : r+nu]
		copy(row, pow[r-nu:r])
		timesX(row)
		timesX(row)
	}

	// The Frobenius ladder, ending in the splitting test.
	row := ladder[:nu]
	clear(row)
	row[1] = 1
	for k := 1; k <= m; k++ {
		sq := ladder[k*nu : (k+1)*nu]
		clear(sq)
		for i, a := range row {
			switch {
			case a == 0:
			case 2*i < nu:
				sq[2*i] ^= exp[2*int(log[a])]
			default:
				r := (2*i - j0) / 2 * nu
				mulAcc(sq, pow[r:r+nu], exp[2*int(log[a])], log, exp)
			}
		}
		row = sq
	}
	row[1] ^= 1 // x^(2^m) mod g is not needed again: subtract x in place
	for _, c := range row {
		if c != 0 {
			return pos, false
		}
	}

	// Refine the factor list by one trace polynomial per basis element
	// until every factor is linear.
	nfac := 1
	deg[0] = uint16(nu)
	for i := 0; i < m && nfac < nu; i++ {
		clear(tr)
		for k, e := 0, i; k < m; k, e = k+1, 2*e%N {
			mulAcc(tr, ladder[k*nu:(k+1)*nu], exp[e], log, exp)
		}
		nn, off := 0, 0
		for _, n16 := range deg[:nfac] {
			n := int(n16)
			h := fac[off : off+n]
			a := 0
			var d, spare []uint16
			if n > 1 {
				d, spare = gcdMonic(h, tr, u, v, N, log, exp)
				a = len(d)
			}
			if a == 0 || a == n { // every root of h on one side: h stays whole
				copy(next[off:], h)
				ndeg[nn] = n16
				nn++
			} else {
				// h = d · q: dividing in place leaves the quotient's
				// coefficients above the (zero) remainder.
				q := spare[:n+1]
				copy(q, h)
				q[n] = 1
				polyRem(q, n, d, log, exp)
				copy(next[off:], d)
				copy(next[off+a:], q[a:n])
				ndeg[nn], ndeg[nn+1] = uint16(a), uint16(n-a)
				nn += 2
			}
			off += n
		}
		fac, next, deg, ndeg, nfac = next, fac, ndeg, deg, nn
	}
	if nfac < nu {
		return pos, false
	}

	// Each factor is x + r: the root r = alpha^-d is bit index nbits-1-d.
	// Insertion sort keeps the positions ascending (nu <= 65 in practice).
	positions = pos
	for _, r := range fac {
		d := (N - int(log[r])) % N
		if d >= nbits {
			return pos, false // root outside the shortened codeword
		}
		positions = append(positions, nbits-1-d)
		for j := len(positions) - 1; j > len(pos) && positions[j-1] > positions[j]; j-- {
			positions[j-1], positions[j] = positions[j], positions[j-1]
		}
	}
	return positions, true
}

// mulAcc adds c·src to dst coefficient by coefficient, for c != 0.
func mulAcc(dst, src []uint16, c uint16, log, exp []uint16) {
	lc := int(log[c])
	dst = dst[:len(src)]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= exp[lc+int(log[s])]
		}
	}
}

// polyRem reduces a (coefficients a[0..da]) in place modulo the monic
// polynomial of degree len(b) whose low coefficients are b, and returns
// the remainder's degree, -1 for zero. The coefficients it leaves at
// a[len(b)..da] are the quotient's.
func polyRem(a []uint16, da int, b []uint16, log, exp []uint16) int {
	db := len(b)
	for j := da; j >= db; j-- {
		if c := a[j]; c != 0 {
			mulAcc(a[j-db:j], b, c, log, exp)
		}
	}
	d := min(da, db-1)
	for d >= 0 && a[d] == 0 {
		d--
	}
	return d
}

// gcdMonic returns the low coefficients of the monic gcd of h (monic,
// given by its low coefficients) and t; len(d) is the gcd's degree. It
// works in u and v, each at least max(len(h), len(t))+1 long: d aliases
// one of them and spare is the other.
func gcdMonic(h, t, u, v []uint16, N int, log, exp []uint16) (d, spare []uint16) {
	du := len(h)
	copy(u, h)
	u[du] = 1
	copy(v, t)
	dv := polyRem(v, len(t)-1, h, log, exp)
	for dv >= 0 {
		if lead := v[dv]; lead != 1 {
			linv := N - int(log[lead])
			for i, c := range v[:dv] {
				if c != 0 {
					v[i] = exp[linv+int(log[c])]
				}
			}
			v[dv] = 1
		}
		r := polyRem(u, du, v[:dv], log, exp)
		u, v, du, dv = v, u, dv, r
	}
	return u[:du], v
}
