package gpu

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCoalesceFullyCoalesced(t *testing.T) {
	// 32 lanes, consecutive 4-byte words in one 128 B line.
	lanes := make([]uint64, 32)
	for i := range lanes {
		lanes[i] = 0x1000 + uint64(i)*4
	}
	got := Coalesce(lanes, 128)
	if len(got) != 1 || got[0] != 0x1000 {
		t.Fatalf("Coalesce = %v, want [0x1000]", got)
	}
}

func TestCoalesceFullyDivergent(t *testing.T) {
	lanes := make([]uint64, 32)
	for i := range lanes {
		lanes[i] = uint64(i) * 4096
	}
	got := Coalesce(lanes, 128)
	if len(got) != 32 {
		t.Fatalf("divergent gather coalesced to %d transactions, want 32", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("output not strictly ascending")
		}
	}
}

func TestCoalesceStride(t *testing.T) {
	// Stride of 256 B with 128 B lines: every lane its own line, but two
	// lanes per 256 B... no: stride 64 B means two lanes share a line.
	lanes := make([]uint64, 32)
	for i := range lanes {
		lanes[i] = uint64(i) * 64
	}
	got := Coalesce(lanes, 128)
	if len(got) != 16 {
		t.Fatalf("64B-stride warp -> %d transactions, want 16", len(got))
	}
}

func TestCoalesceEmpty(t *testing.T) {
	if got := Coalesce(nil, 128); got != nil {
		t.Fatalf("Coalesce(nil) = %v", got)
	}
	if got := CoalesceAccesses(nil, 128); got != nil {
		t.Fatalf("CoalesceAccesses(nil) = %v", got)
	}
}

func TestAppendCoalesced(t *testing.T) {
	lanes := []uint64{0x2010, 0x1000, 0x2000, 0x1070, 0x3000}
	buf := make([]uint64, 1, 8)
	buf[0] = 7
	var got []uint64
	if allocs := testing.AllocsPerRun(10, func() { got = AppendCoalesced(buf[:1], lanes, 128) }); allocs != 0 {
		t.Fatalf("AppendCoalesced into a large enough buffer: %v allocs, want 0", allocs)
	}
	want := []uint64{7, 0x1000, 0x2000, 0x3000}
	if !slices.Equal(got, want) {
		t.Fatalf("AppendCoalesced = %#x, want %#x", got, want)
	}
	if lanes[0] != 0x2010 || lanes[1] != 0x1000 {
		t.Fatal("AppendCoalesced modified its input")
	}
}

func TestCoalesceAccessesWriteOr(t *testing.T) {
	lanes := []Access{
		{VA: 0x100, Write: false},
		{VA: 0x140, Write: true}, // same 128 B line as 0x100? 0x100..0x17f -> yes
		{VA: 0x200, Write: false},
	}
	got := CoalesceAccesses(lanes, 128)
	if len(got) != 2 {
		t.Fatalf("got %d transactions, want 2", len(got))
	}
	if got[0].VA != 0x100 || !got[0].Write {
		t.Fatalf("merged transaction = %+v, want write=true at 0x100", got[0])
	}
	if got[1].VA != 0x200 || got[1].Write {
		t.Fatalf("second transaction = %+v", got[1])
	}
}

// Property: every lane's line appears exactly once, sorted, regardless of
// input order.
func TestPropertyCoalesceCovers(t *testing.T) {
	f := func(raw []uint32) bool {
		lanes := make([]uint64, len(raw))
		for i, r := range raw {
			lanes[i] = uint64(r)
		}
		got := Coalesce(lanes, 128)
		want := map[uint64]bool{}
		for _, a := range lanes {
			want[a&^127] = true
		}
		if len(got) != len(want) {
			return false
		}
		for i, g := range got {
			if !want[g] || g%128 != 0 {
				return false
			}
			if i > 0 && got[i-1] >= g {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCoalesce(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lanes := make([]uint64, 32)
	for i := range lanes {
		lanes[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Coalesce(lanes, 128)
	}
}
