package workloads

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// rngTestSeeds covers the seed reduction: zero (replaced by a default),
// signs, the modulus 2^31-1 and its multiples (which reduce to zero), the
// int64 extremes, and random seeds.
func rngTestSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, int32max - 1, int32max + 1,
		2 * int32max, -3 * int32max, int32max * int32max,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	r := rand.New(rand.NewSource(20150314))
	for i := 0; i < 8; i++ {
		seeds = append(seeds, r.Int63(), -r.Int63())
	}
	return seeds
}

// TestWarpSourceMatchesMathRand draws past 3x the state length, across the
// lazy/materialised boundary at draws 273/274, the first reuse of a stored
// word at 334 and the wrap at 607, mixing Uint64 and Int63, then reseeds
// the same source mid-stream and checks it again.
func TestWarpSourceMatchesMathRand(t *testing.T) {
	const draws = 3*rngLen + 50
	for _, seed := range rngTestSeeds() {
		got := newWarpSource(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for _, cut := range []int{draws, 0, 1, rngTap - 1, rngTap, rngTap + 1, rngLen - rngTap, rngLen, rngLen + 1} {
			for k := 1; k <= cut; k++ {
				var g, w uint64
				if k%3 == 0 {
					g, w = uint64(got.Int63()), uint64(want.Int63())
				} else {
					g, w = got.Uint64(), want.Uint64()
				}
				if g != w {
					t.Fatalf("seed %d, segment of %d draws: draw %d = %#x, math/rand gives %#x", seed, cut, k, g, w)
				}
			}
			seed ^= int64(cut)
			got.Seed(seed)
			want.Seed(seed)
		}
	}
}

// TestWarpSourceThroughRand checks the derived draws the generators use.
func TestWarpSourceThroughRand(t *testing.T) {
	for _, seed := range rngTestSeeds() {
		got, want := rand.New(newWarpSource(seed)), rand.New(rand.NewSource(seed))
		zg, zw := rand.NewZipf(got, 1.2, 1, 999), rand.NewZipf(want, 1.2, 1, 999)
		for k := 0; k < 2*rngLen; k++ {
			g := [...]float64{got.Float64(), float64(got.Intn(32)), float64(got.Int63n(1e15 + 7)), float64(zg.Uint64())}
			w := [...]float64{want.Float64(), float64(want.Intn(32)), float64(want.Int63n(1e15 + 7)), float64(zw.Uint64())}
			if g != w {
				t.Fatalf("seed %d, round %d: Float64/Intn/Int63n/Zipf = %v, math/rand gives %v", seed, k, g, w)
			}
		}
	}
}

// TestWarpSourceLazyAllocFree pins the point of the lazy source: seeding
// and the first 273 draws allocate nothing beyond the source itself, draw
// 274 allocates the state array, and a reseeded source reuses it.
func TestWarpSourceLazyAllocFree(t *testing.T) {
	var s *warpSource
	fresh := func(draws int) float64 {
		return testing.AllocsPerRun(20, func() {
			s = newWarpSource(7)
			for k := 0; k < draws; k++ {
				s.Uint64()
			}
		})
	}
	if allocs := fresh(rngTap); allocs != 1 || s.vec != nil {
		t.Fatalf("seed and %d draws: %v allocs, state array allocated: %v; want 1 (the source), false",
			rngTap, allocs, s.vec != nil)
	}
	if allocs := fresh(rngTap + 1); allocs != 2 || s.vec == nil {
		t.Fatalf("seed and %d draws: %v allocs, state array allocated: %v; want 2, true",
			rngTap+1, allocs, s.vec != nil)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		s.Seed(8)
		for k := 0; k < rngLen; k++ {
			s.Uint64()
		}
	}); allocs != 0 {
		t.Fatalf("reseeded source: %v allocs, want 0", allocs)
	}
}

// TestProgramsMatchMathRandReference drains every warp of every registered
// workload, at full length (most warps materialise their state) and shrunk
// (most stay lazy), against programs drawing from math/rand.NewSource.
func TestProgramsMatchMathRandReference(t *testing.T) {
	for _, name := range AllNames() {
		for _, shrink := range []int{1, 8} {
			s := MustBuild(name, Train())
			s.Shrink(shrink)
			allocs, err := s.Allocate(testRuntime(), nil)
			if err != nil {
				t.Fatal(err)
			}
			progs := s.Programs(allocs)
			cum := cumulativeWeights(s.Structures)
			for w, p := range progs {
				ref := newWarpProgram(&s, allocs, cum, w, rand.New(rand.NewSource(s.warpSeed(w))))
				for phase := 1; ; phase++ {
					got, gok := p.NextPhase()
					want, wok := ref.NextPhase()
					if gok != wok {
						t.Fatalf("%s/shrink %d warp %d: phase %d present %v, reference %v", name, shrink, w, phase, gok, wok)
					}
					if !gok {
						break
					}
					for i := range want.Addrs {
						if got.Addrs[i] != want.Addrs[i] {
							t.Fatalf("%s/shrink %d warp %d phase %d access %d = %+v, reference %+v",
								name, shrink, w, phase, i, got.Addrs[i], want.Addrs[i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkSourceSeed seeds a source and takes the mean number of draws a
// figures-workload warp makes (175), and a count past materialisation.
func BenchmarkSourceSeed(b *testing.B) {
	for _, draws := range []int{0, 175, 700} {
		for _, src := range []struct {
			name string
			new  func(int64) rand.Source64
		}{
			{"mathrand", func(seed int64) rand.Source64 { return rand.NewSource(seed).(rand.Source64) }},
			{"warp", func(seed int64) rand.Source64 { return newWarpSource(seed) }},
		} {
			b.Run(src.name+"/draws="+strconv.Itoa(draws), func(b *testing.B) {
				b.ReportAllocs()
				var sink uint64
				for i := 0; i < b.N; i++ {
					s := src.new(int64(i))
					for k := 0; k < draws; k++ {
						sink += s.Uint64()
					}
				}
				benchSink = sink
			})
		}
	}
}

// BenchmarkWarpPrograms builds and drains the warp programs of one workload
// at the size the figures benchmark runs it (train dataset, shrink 4).
func BenchmarkWarpPrograms(b *testing.B) {
	s := MustBuild("bfs", Train())
	s.Shrink(4)
	allocs, err := s.Allocate(testRuntime(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for _, p := range s.Programs(allocs) {
			for ph, ok := p.NextPhase(); ok; ph, ok = p.NextPhase() {
				sink += ph.Addrs[0].VA
			}
		}
	}
	benchSink = sink
}

var benchSink uint64
