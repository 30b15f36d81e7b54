package world

import "math/rand"

// The constants of math/rand's seeded generator: an additive lagged
// Fibonacci register of rngLen words with a tap rngTap behind the feed,
// seeded from the multiplicative LCG x ← seedA·x mod seedM.
const (
	rngLen = 607
	rngTap = 273
	seedA  = 48271
	seedM  = 1<<31 - 1
)

// lazySource is math/rand's seeded Source, bit for bit, with the seeding
// made O(draws). rand.NewSource walks the LCG 20+3·607 steps to fill the
// whole register; a domain then reads about a dozen of its words. Because
// the LCG is multiplicative, step k of the chain is seedA^k·seed mod seedM,
// so word i is computable on its own from seedPow[i] = seedA^(21+3i): a
// word exists only once a draw has read it (have is the bitmap), and Seed
// just forgets them all. TestLazySourceMatchesMathRand and FuzzSeedStream
// hold the stream to math/rand's.
type lazySource struct {
	seed      uint64 // reduced into [1, seedM) as rngSource.Seed does
	tap, feed int
	have      [(rngLen + 63) / 64]uint64
	vec       [rngLen]int64
}

var seedPow, seedCooked = seedTables()

// seedTables builds the per-word LCG powers and recovers rngCooked, the
// 607 constants math/rand xors into a freshly seeded register, from the
// first 607 outputs o[1..607] of one real rand.NewSource(1) instead of
// copying the table out of GOROOT. Draw n adds word 607−n (the tap) into
// word 334−n mod 607 (the feed) and returns the sum. From draw 274 on the
// tap word is one an earlier draw wrote, o[n−273], while the feed word is
// still the seeded one: v[feed] = o[n] − o[n−273] gives v[60..0] and
// v[606..334]. For draws 1..273 both words are seeded ones and the tap
// word is among those just recovered: v[334−n] = o[n] − v[607−n] gives
// v[333..61]. Xoring out what seed 1 contributes leaves the constant.
func seedTables() (pow [rngLen]uint64, cooked [rngLen]int64) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * seedA % seedM
	}
	for i := range pow {
		pow[i] = x
		x = x * seedA % seedM * seedA % seedM * seedA % seedM
	}

	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]int64
	for n := 1; n <= rngLen; n++ {
		o[n] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for n := rngTap + 1; n <= rngLen; n++ {
		v[(2*rngLen-rngTap-n)%rngLen] = o[n] - o[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		v[rngLen-rngTap-n] = o[n] - v[rngLen-n]
	}
	for i := range cooked {
		cooked[i] = v[i] ^ seedWord(pow[i], 1)
	}
	return pow, cooked
}

// seedWord is what the LCG chain started at seed contributes to the
// register word whose power is pow = seedPow[i]: steps 21+3i, 22+3i and
// 23+3i, packed as rngSource.Seed packs them.
func seedWord(pow, seed uint64) int64 {
	x := pow * seed % seedM
	u := x << 40
	x = x * seedA % seedM
	u ^= x << 20
	x = x * seedA % seedM
	return int64(u ^ x)
}

// Seed implements rand.Source.
func (s *lazySource) Seed(seed int64) {
	seed %= seedM
	if seed < 0 {
		seed += seedM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.have = [len(s.have)]uint64{}
}

// word returns register word i, seeding it first if no draw has yet.
func (s *lazySource) word(i int) int64 {
	if bit := uint64(1) << (i & 63); s.have[i>>6]&bit == 0 {
		s.have[i>>6] |= bit
		s.vec[i] = seedWord(seedPow[i], s.seed) ^ seedCooked[i]
	}
	return s.vec[i]
}

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
