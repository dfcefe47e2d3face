package gpu

import (
	"cmp"
	"slices"
)

// Coalesce merges the per-lane byte addresses of one warp memory
// instruction into the minimal set of line-sized transactions, exactly as
// a GPU's coalescing unit does: lanes touching the same line share one
// transaction; divergent lanes fan out into many. lineBytes must be a
// power of two.
//
// The returned addresses are the unique line base addresses in ascending
// order. A fully-coalesced warp (all lanes in one line) returns one
// transaction; a fully-divergent gather returns one per lane.
func Coalesce(laneAddrs []uint64, lineBytes uint64) []uint64 {
	if len(laneAddrs) == 0 {
		return nil
	}
	return AppendCoalesced(make([]uint64, 0, len(laneAddrs)), laneAddrs, lineBytes)
}

// AppendCoalesced appends the transactions Coalesce returns for laneAddrs
// to dst and returns the extended slice, so a caller coalescing
// instruction after instruction can reuse one buffer.
func AppendCoalesced(dst, laneAddrs []uint64, lineBytes uint64) []uint64 {
	n := len(dst)
	mask := ^(lineBytes - 1)
	for _, a := range laneAddrs {
		dst = append(dst, a&mask)
	}
	slices.Sort(dst[n:])
	return dst[:n+len(slices.Compact(dst[n:]))]
}

// CoalesceAccesses is Coalesce for Access values: the write flag of a
// merged transaction is the OR of its lanes' flags (a transaction with any
// store lane must write).
func CoalesceAccesses(lanes []Access, lineBytes uint64) []Access {
	if len(lanes) == 0 {
		return nil
	}
	mask := ^(lineBytes - 1)
	type lineInfo struct {
		addr  uint64
		write bool
	}
	byLine := make(map[uint64]lineInfo, len(lanes))
	for _, l := range lanes {
		base := l.VA & mask
		info := byLine[base]
		info.addr = base
		info.write = info.write || l.Write
		byLine[base] = info
	}
	out := make([]Access, 0, len(byLine))
	for _, info := range byLine {
		out = append(out, Access{VA: info.addr, Write: info.write})
	}
	slices.SortFunc(out, func(a, b Access) int { return cmp.Compare(a.VA, b.VA) })
	return out
}
