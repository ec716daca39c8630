package dmtcp

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func sampleImage() RankImage {
	return RankImage{Rank: 3, Step: 9, Clock: -12345, ProgState: []byte("state"), PluginBlob: []byte("blob!")}
}

func sameImage(a, b RankImage) bool {
	return a.Rank == b.Rank && a.Step == b.Step && a.Clock == b.Clock &&
		bytes.Equal(a.ProgState, b.ProgState) && bytes.Equal(a.PluginBlob, b.PluginBlob)
}

func TestRankImageRoundTrip(t *testing.T) {
	for _, img := range []RankImage{
		sampleImage(),
		{Rank: 0, Step: 1},
		{Rank: 7, ProgState: []byte{0}},
		{Rank: 1, PluginBlob: []byte{1, 2}},
	} {
		raw := encodeRankImage(img)
		if len(raw) != imageHeader+len(img.ProgState)+len(img.PluginBlob) {
			t.Fatalf("encoded %d bytes for %+v", len(raw), img)
		}
		got, err := decodeRankImage(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !sameImage(got, img) {
			t.Fatalf("round trip: got %+v, want %+v", got, img)
		}
	}
}

func TestRankImageRejectsDamage(t *testing.T) {
	good := encodeRankImage(sampleImage())
	damage := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for _, tc := range []struct {
		name, want string
		raw        []byte
	}{
		{"empty", "short image", nil},
		{"header only half", "short image", good[:imageHeader/2]},
		{"truncated payload", "length mismatch", good[:len(good)-1]},
		{"trailing byte", "length mismatch", append(append([]byte(nil), good...), 0)},
		{"magic", "bad magic", damage(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"version", "version", damage(func(b []byte) []byte { b[4]++; return b })},
		{"payload byte", "CRC mismatch", damage(func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b })},
		{"step", "CRC mismatch", damage(func(b []byte) []byte { b[16] ^= 1; return b })},
		{"lengths", "length mismatch", damage(func(b []byte) []byte { b[32]++; return b })},
		{"huge length", "length mismatch", damage(func(b []byte) []byte { b[39] = 0xff; return b })},
	} {
		if _, err := decodeRankImage(tc.raw); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// ReadRankImage names the rank whose image is damaged, and rejects an
// intact image filed under another rank's name.
func TestReadRankImageErrors(t *testing.T) {
	dir := t.TempDir()
	if err := writeRankImage(dir, sampleImage()); err != nil {
		t.Fatal(err)
	}
	if img, err := ReadRankImage(dir, 3); err != nil || !sameImage(img, sampleImage()) {
		t.Fatalf("ReadRankImage = %+v, %v", img, err)
	}
	if err := os.WriteFile(rankImagePath(dir, 3), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRankImage(dir, 3); err == nil || !strings.Contains(err.Error(), "rank 3") {
		t.Fatalf("torn image: err = %v, want one naming rank 3", err)
	}
	if err := os.WriteFile(rankImagePath(dir, 2), encodeRankImage(sampleImage()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRankImage(dir, 2); err == nil {
		t.Fatal("rank 3's image accepted as rank 2's")
	}
}

// FuzzRankImage: arbitrary bytes never panic the decoder, a decoded
// image re-encodes to exactly its input (the encoding is canonical), and
// any image built from the input round-trips.
func FuzzRankImage(f *testing.F) {
	f.Add(encodeRankImage(sampleImage()), 2)
	f.Add(encodeRankImage(RankImage{}), 0)
	f.Add([]byte(imageMagic), 0)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, data []byte, split int) {
		if img, err := decodeRankImage(data); err == nil {
			if again := encodeRankImage(img); !bytes.Equal(again, data) {
				t.Fatalf("decode then encode changed the image:\n in %x\nout %x", data, again)
			}
		}
		if split < 0 {
			split = -split
		}
		if len(data) > 0 {
			split %= len(data) + 1
		} else {
			split = 0
		}
		img := RankImage{Rank: len(data), Step: uint64(split), Clock: int64(split) - 1,
			ProgState: data[:split], PluginBlob: data[split:]}
		got, err := decodeRankImage(encodeRankImage(img))
		if err != nil {
			t.Fatalf("valid encoding rejected: %v", err)
		}
		if !sameImage(got, img) {
			t.Fatalf("round trip: got %+v, want %+v", got, img)
		}
	})
}
