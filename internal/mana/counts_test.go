package mana

import (
	"bytes"
	"reflect"
	"testing"
)

func sampleCounts() map[uint64]wireCounts {
	return map[uint64]wireCounts{
		1:          {MyRank: 2, SentTo: map[int]uint64{0: 5, 1: 1 << 40, 3: 7}},
		0xdeadbeef: {MyRank: 0, SentTo: map[int]uint64{}},
		42:         {MyRank: 1, SentTo: map[int]uint64{0: 1}},
	}
}

func TestCountsRoundTrip(t *testing.T) {
	for _, pub := range []map[uint64]wireCounts{sampleCounts(), {}} {
		got, err := decodeCounts(encodeCounts(pub))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, pub) {
			t.Fatalf("round trip: got %v, want %v", got, pub)
		}
	}
}

// Equal maps encode to equal bytes whatever order they were built in:
// communicators are sorted by gid and peers by rank.
func TestCountsDeterministic(t *testing.T) {
	a := sampleCounts()
	b := make(map[uint64]wireCounts)
	for _, gid := range []uint64{42, 0xdeadbeef, 1} {
		sent := make(map[int]uint64)
		for _, r := range []int{3, 1, 0} {
			if v, ok := a[gid].SentTo[r]; ok {
				sent[r] = v
			}
		}
		b[gid] = wireCounts{MyRank: a[gid].MyRank, SentTo: sent}
	}
	ea, eb := encodeCounts(a), encodeCounts(b)
	if !bytes.Equal(ea, eb) {
		t.Fatalf("equal maps encoded differently:\n%x\n%x", ea, eb)
	}
	for i := 0; i < 5; i++ {
		if again := encodeCounts(sampleCounts()); !bytes.Equal(again, ea) {
			t.Fatal("encoding is not deterministic")
		}
	}
}

func TestCountsRejectsShortPayload(t *testing.T) {
	raw := encodeCounts(sampleCounts())
	for n := 0; n < len(raw); n++ {
		if _, err := decodeCounts(raw[:n]); err == nil {
			t.Fatalf("payload cut to %d of %d bytes accepted", n, len(raw))
		}
	}
	if _, err := decodeCounts(append(raw, 0)); err == nil {
		t.Fatal("payload with a trailing byte accepted")
	}
}
