package workloads

import (
	"fmt"
	"math/rand"

	"hetsim/internal/gpu"
)

// LineBytes is the coalesced access granularity: one access touches one
// 128-byte cache line, matching the memory system's line size.
const LineBytes = 128

// PatternKind selects how offsets within a structure are generated.
type PatternKind int

// Pattern kinds.
const (
	// Sequential streams through the structure line by line; each warp
	// starts at its own partition, modelling coalesced streaming kernels.
	Sequential PatternKind = iota
	// Strided walks the structure with a fixed stride (column-major or
	// blocked kernels).
	Strided
	// Uniform picks lines uniformly at random over the touched range.
	Uniform
	// Zipf picks pages with a Zipf distribution (hot head), then a random
	// line within the page. Hot pages cluster at the structure's start,
	// producing the address-correlated hotness of Figure 7 (bfs).
	Zipf
	// ScatteredZipf is Zipf with the page order bit-mixed, so hot pages
	// are spread across the structure's address range — hotness NOT
	// correlated with address, as the paper observes for mummergpu.
	ScatteredZipf
	// GatherScatter models warp-divergent access: each instruction's 32
	// lanes gather from random addresses and the coalescing unit merges
	// them into however many line transactions they span (usually ~32 for
	// random gathers, fewer when lanes collide).
	GatherScatter
)

// Pattern parameterizes offset generation within one structure.
type Pattern struct {
	Kind PatternKind
	// StrideLines is the stride for Strided, in lines (default 8).
	StrideLines int
	// ZipfS is the Zipf skew parameter (>1); larger is more skewed.
	// Default 1.2.
	ZipfS float64
	// TouchFrac restricts accesses to the first fraction of the structure
	// (Figure 7 shows mummergpu ranges that are allocated but never
	// accessed). Default 1.0.
	TouchFrac float64
	// Lanes is the warp width for GatherScatter (default 32).
	Lanes int
}

func (p Pattern) String() string {
	switch p.Kind {
	case Sequential:
		return "sequential"
	case Strided:
		return fmt.Sprintf("strided(%d)", p.strideLines())
	case Uniform:
		return "uniform"
	case Zipf:
		return fmt.Sprintf("zipf(%.2f)", p.zipfS())
	case ScatteredZipf:
		return fmt.Sprintf("scattered-zipf(%.2f)", p.zipfS())
	case GatherScatter:
		return fmt.Sprintf("gather(%d)", p.lanes())
	default:
		return fmt.Sprintf("Pattern(%d)", int(p.Kind))
	}
}

func (p Pattern) strideLines() int {
	if p.StrideLines <= 0 {
		return 8
	}
	return p.StrideLines
}

func (p Pattern) zipfS() float64 {
	if p.ZipfS <= 1 {
		return 1.2
	}
	return p.ZipfS
}

func (p Pattern) lanes() int {
	if p.Lanes <= 0 {
		return 32
	}
	return p.Lanes
}

func (p Pattern) touchFrac() float64 {
	if p.TouchFrac <= 0 || p.TouchFrac > 1 {
		return 1
	}
	return p.TouchFrac
}

// offsetGen produces successive byte offsets within one structure for one
// warp. Implementations are deterministic given the warp's seeded rng.
type offsetGen interface {
	next(rng *rand.Rand) uint64
}

const pageBytes = 4096

// generator builds the offset generator for a structure of size bytes.
func (p Pattern) generator(size uint64, warpID, warps int, rng *rand.Rand) offsetGen {
	lines := size / LineBytes
	if lines == 0 {
		lines = 1
	}
	touched := uint64(float64(lines) * p.touchFrac())
	if touched == 0 {
		touched = 1
	}
	switch p.Kind {
	case Sequential:
		start := uint64(warpID) * touched / uint64(maxInt(warps, 1))
		return &seqGen{lines: touched, cursor: start, stride: 1}
	case Strided:
		start := uint64(warpID) * touched / uint64(maxInt(warps, 1))
		return &seqGen{lines: touched, cursor: start, stride: uint64(p.strideLines())}
	case Uniform:
		return uniformGen{lines: touched}
	case GatherScatter:
		return &gatherGen{lines: touched, lanes: p.lanes()}
	case Zipf, ScatteredZipf:
		pages := touched * LineBytes / pageBytes
		if pages == 0 {
			pages = 1
		}
		z := rand.NewZipf(rng, p.zipfS(), 1, pages-1)
		if z == nil {
			// pages-1 == 0: single page degenerates to uniform lines.
			return uniformGen{lines: touched}
		}
		return &zipfGen{
			zipf:    z,
			pages:   pages,
			lines:   touched,
			scatter: p.Kind == ScatteredZipf,
		}
	default:
		return uniformGen{lines: touched}
	}
}

type seqGen struct {
	lines  uint64
	cursor uint64
	stride uint64
}

func (g *seqGen) next(*rand.Rand) uint64 {
	off := (g.cursor % g.lines) * LineBytes
	g.cursor += g.stride
	return off
}

type uniformGen struct{ lines uint64 }

func (g uniformGen) next(rng *rand.Rand) uint64 {
	return uint64(rng.Int63n(int64(g.lines))) * LineBytes
}

type zipfGen struct {
	zipf    *rand.Zipf
	pages   uint64
	lines   uint64
	scatter bool
}

const linesPerPage = pageBytes / LineBytes

func (g *zipfGen) next(rng *rand.Rand) uint64 {
	page := g.zipf.Uint64()
	if g.scatter {
		page = mix(page) % g.pages
	}
	line := page*linesPerPage + uint64(rng.Intn(linesPerPage))
	if line >= g.lines {
		line = g.lines - 1
	}
	return line * LineBytes
}

// gatherGen models one warp instruction per lane group: it draws Lanes
// random lane addresses, coalesces them with the GPU's coalescing rule,
// and then deals the resulting transactions out one next() at a time.
type gatherGen struct {
	lines     uint64
	lanes     int
	laneAddrs []uint64 // lane-address buffer, reused every instruction
	buf       []uint64 // coalesced transactions, reused every instruction
	pending   []uint64 // the part of buf not yet dealt out
}

func (g *gatherGen) next(rng *rand.Rand) uint64 {
	if len(g.pending) == 0 {
		if g.laneAddrs == nil {
			g.laneAddrs = make([]uint64, g.lanes)
		}
		span := int64(g.lines * LineBytes)
		for i := range g.laneAddrs {
			g.laneAddrs[i] = uint64(rng.Int63n(span))
		}
		g.buf = gpu.AppendCoalesced(g.buf[:0], g.laneAddrs, LineBytes)
		g.pending = g.buf
	}
	off := g.pending[0]
	g.pending = g.pending[1:]
	return off
}

// mix is a fixed 64-bit permutation (splitmix64 finalizer) that decorrelates
// Zipf rank from address while remaining deterministic.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
