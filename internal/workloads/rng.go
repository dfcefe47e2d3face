package workloads

import (
	"math/rand"
	"sync"
)

// warpSource is a rand.Source64 whose stream is bit-for-bit that of
// rand.NewSource(seed): Go's additive lagged Fibonacci generator
// x[n] = x[n-607] + x[n-273] over a 607-word state. The standard source
// seeds all 607 words (1,841 steps of a Lehmer generator and a 4.9 KB
// array) even though a warp draws ~175 values on average, which made
// seeding the largest cost of building a workload's warp programs.
//
// This source computes the state words it needs on demand instead:
//
//   - Jump-ahead seeding. The Lehmer step is x*48271 mod (2^31-1), so the
//     k-th step from the reduced seed x0 is x0*48271^k mod (2^31-1), and
//     word i of the seeded state is built from steps 21+3i, 22+3i and
//     23+3i, XORed with the standard library's constant table.
//   - Lazy draws. Draw k (1-based) reads words 334-k and 607-k and stores
//     their sum in word 334-k. For k <= 273 neither word has been stored to
//     yet, so the draw is the sum of two freshly computed seed words and
//     nothing needs to be kept.
//   - Materialise on demand. Draw 274 is the first to read a stored word
//     (word 333, from draw 1), so only then is the 607-word state built,
//     with the first 273 stores replayed into it.
type warpSource struct {
	x0    uint64 // seed reduced to [1, 2^31-2]
	drawn int    // draws made lazily; rngTap+1 once vec is live
	// vec is the generator state, allocated by the first draw past rngTap
	// and kept across Seed for reuse; tap and feed are its read cursors.
	vec       *[rngLen]int64
	tap, feed int
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedSkip is the number of Lehmer steps the standard seeding discards
	// before it builds word 0.
	seedSkip = 20
	// seedA is the Lehmer multiplier of the standard seeding.
	seedA = 48271
	// zeroSeed replaces a seed that is 0 modulo 2^31-1, as in math/rand.
	zeroSeed = 89482311
)

var (
	rngTablesOnce sync.Once
	// wordPow[i][j] is seedA^(seedSkip+1+3i+j) mod 2^31-1: the Lehmer
	// steps that state word i is built from.
	wordPow [rngLen][3]uint64
	// rngCooked is math/rand's constant table, which every seeded state word
	// is XORed with.
	rngCooked [rngLen]int64
)

// buildRNGTables fills wordPow and recovers rngCooked from the first
// rngLen outputs of rand.NewSource(1): after rngLen draws every state word
// has been stored to exactly once, so the final state is those outputs;
// undoing the draws in reverse order gives the seeded state, and XORing
// out seed 1's Lehmer words leaves the table.
func buildRNGTables() {
	pow := uint64(1)
	for k := 0; k <= seedSkip; k++ {
		pow = pow * seedA % int32max
	}
	for i := range wordPow {
		for j := range wordPow[i] {
			wordPow[i][j] = pow
			pow = pow * seedA % int32max
		}
	}
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for k := 0; k < rngLen; k++ {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		vec[feed] = int64(src.Uint64())
	}
	for k := 0; k < rngLen; k++ {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	for i := range vec {
		rngCooked[i] = vec[i] ^ lehmerWord(1, i)
	}
}

// lehmerWord is state word i of the standard seeding from reduced seed x0,
// before the XOR with rngCooked.
func lehmerWord(x0 uint64, i int) int64 {
	p := &wordPow[i]
	return int64(x0*p[0]%int32max<<40 ^ x0*p[1]%int32max<<20 ^ x0*p[2]%int32max)
}

// newWarpSource returns a source seeded as rand.NewSource(seed) is.
func newWarpSource(seed int64) *warpSource {
	s := &warpSource{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source.
func (s *warpSource) Seed(seed int64) {
	rngTablesOnce.Do(buildRNGTables)
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
	s.drawn = 0
}

// word is state word i as seeded.
func (s *warpSource) word(i int) int64 {
	return lehmerWord(s.x0, i) ^ rngCooked[i]
}

// Int63 implements rand.Source.
func (s *warpSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 implements rand.Source64.
func (s *warpSource) Uint64() uint64 {
	if s.drawn <= rngTap {
		if s.drawn < rngTap {
			s.drawn++
			return uint64(s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn))
		}
		s.materialise()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// materialise builds the state as it stands after the first rngTap draws.
func (s *warpSource) materialise() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for k := 1; k <= rngTap; k++ {
		s.vec[rngLen-rngTap-k] += s.vec[rngLen-k]
	}
	s.tap, s.feed = rngLen-rngTap, rngLen-2*rngTap
	s.drawn = rngTap + 1
}
