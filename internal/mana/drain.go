package mana

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"slices"

	"repro/internal/abi"
)

// Blob is the wrapper's serialized upper-half MPI state: everything needed
// to rebind virtual ids against a fresh lower half and to replay drained
// in-flight messages. It contains no implementation handles — only
// standard-ABI values and recipes — which is what makes a Mukautuva-backed
// image restartable under a different MPI implementation.
type Blob struct {
	NextVid  uint64
	Log      []Event
	Sent     map[abi.Handle]map[int]uint64
	Recvd    map[abi.Handle]map[int]uint64
	Buffered map[abi.Handle][]Drained
}

// wireCounts is one rank's published send counters for one communicator
// (keyed by gid in the exchange payload).
type wireCounts struct {
	MyRank int // the sender's rank within that communicator
	SentTo map[int]uint64
}

// PreCheckpoint implements the dmtcp.Plugin drain phase: MANA's
// counter-exchange algorithm. Every rank publishes, per communicator, how
// many point-to-point messages it has sent to each peer; each receiver
// compares against its receive counters and pulls the difference out of
// the lower half into upper-half buffers. After PreCheckpoint the network
// is empty, so the lower half can be discarded wholesale — the property
// the split-process checkpoint depends on.
func (w *Wrapper) PreCheckpoint() ([]byte, error) {
	if n := len(w.reqs); n != 0 {
		return nil, abi.Errorf(abi.ErrPending, "mana",
			"checkpoint at unsafe point: %d outstanding requests", n)
	}
	// Publish send counters keyed by communicator gid.
	pub := make(map[uint64]wireCounts)
	for vid, counts := range w.sent {
		info := w.comms[vid]
		if info == nil {
			continue
		}
		pub[info.gid] = wireCounts{MyRank: info.myRank, SentTo: counts}
	}
	all := w.oob.Exchange(w.rank, encodeCounts(pub))
	if all == nil {
		return nil, fmt.Errorf("mana: world closed during counter exchange")
	}
	peers := make([]map[uint64]wireCounts, len(all))
	for i, raw := range all {
		if len(raw) == 0 {
			continue
		}
		p, err := decodeCounts(raw)
		if err != nil {
			return nil, fmt.Errorf("mana: decoding counters from rank %d: %w", i, err)
		}
		peers[i] = p
	}
	// Drain the deficit on every communicator I belong to.
	for vid, info := range w.comms {
		for worldRank, pcounts := range peers {
			entry, ok := pcounts[info.gid]
			if !ok {
				continue
			}
			sentToMe := entry.SentTo[info.myRank]
			got := w.recvd[vid][entry.MyRank]
			for k := got; k < sentToMe; k++ {
				if err := w.drainOne(vid, entry.MyRank); err != nil {
					return nil, fmt.Errorf("mana: draining msg %d of %d from comm rank %d (world %d): %w",
						k+1, sentToMe, entry.MyRank, worldRank, err)
				}
			}
		}
	}
	blob := Blob{
		NextVid:  w.nextVid,
		Log:      w.log,
		Sent:     w.sent,
		Recvd:    w.recvd,
		Buffered: w.buffered,
	}
	out, err := gobBytes(blob)
	if err != nil {
		return nil, fmt.Errorf("mana: encoding blob: %w", err)
	}
	return out, nil
}

// drainOne pulls the next pending message from a peer on one communicator
// into the upper-half buffer: probe for its envelope, then receive its
// packed bytes verbatim.
func (w *Wrapper) drainOne(vid abi.Handle, srcCommRank int) error {
	ic := w.In(vid)
	var st abi.Status
	if err := w.inner.Probe(srcCommRank, w.TagIn(abi.AnyTag), ic, &st); err != nil {
		return err
	}
	w.StatusBack(&st)
	buf := make([]byte, st.CountBytes)
	var rst abi.Status
	if err := w.inner.Recv(buf, len(buf), w.In(abi.TypeByte), srcCommRank, int(st.Tag), ic, &rst); err != nil {
		return err
	}
	w.buffered[vid] = append(w.buffered[vid], Drained{
		Source: srcCommRank,
		Tag:    st.Tag,
		Data:   buf,
	})
	bump(w.recvd, vid, srcCommRank)
	return nil
}

// Resume implements the dmtcp.Plugin hook for checkpoints that continue
// running; MANA needs no work here (drained messages are served lazily).
func (w *Wrapper) Resume() error { return nil }

// Restore rebuilds a wrapper's upper-half state from a checkpoint blob
// against a fresh lower half: recipes are replayed to mint equivalent MPI
// objects (a collective operation — every rank restores concurrently), and
// counters plus drained messages are reinstated. The wrapper must be
// freshly constructed with NewWrapper over the new implementation stack.
func (w *Wrapper) Restore(blobBytes []byte) error {
	var blob Blob
	if err := gobValue(blobBytes, &blob); err != nil {
		return fmt.Errorf("mana: decoding blob: %w", err)
	}
	if err := w.replayLog(blob.Log); err != nil {
		return err
	}
	w.nextVid = blob.NextVid
	w.sent = blob.Sent
	w.recvd = blob.Recvd
	w.buffered = blob.Buffered
	if w.sent == nil {
		w.sent = make(map[abi.Handle]map[int]uint64)
	}
	if w.recvd == nil {
		w.recvd = make(map[abi.Handle]map[int]uint64)
	}
	if w.buffered == nil {
		w.buffered = make(map[abi.Handle][]Drained)
	}
	return nil
}

// encodeCounts lays out a rank's published counters in a fixed
// little-endian encoding, communicators sorted by gid and peers by rank,
// so equal maps encode to equal bytes:
//
//	u32 ncomms
//	ncomms x { u64 gid, i32 myRank, u32 npeers, npeers x { i32 rank, u64 sent } }
func encodeCounts(pub map[uint64]wireCounts) []byte {
	gids := make([]uint64, 0, len(pub))
	size := 4
	for gid, wc := range pub {
		gids = append(gids, gid)
		size += 16 + 12*len(wc.SentTo)
	}
	slices.Sort(gids)
	buf := make([]byte, 0, size)
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(len(gids)))
	var ranks []int
	for _, gid := range gids {
		wc := pub[gid]
		buf = le.AppendUint64(buf, gid)
		buf = le.AppendUint32(buf, uint32(int32(wc.MyRank)))
		buf = le.AppendUint32(buf, uint32(len(wc.SentTo)))
		ranks = ranks[:0]
		for r := range wc.SentTo {
			ranks = append(ranks, r)
		}
		slices.Sort(ranks)
		for _, r := range ranks {
			buf = le.AppendUint32(buf, uint32(int32(r)))
			buf = le.AppendUint64(buf, wc.SentTo[r])
		}
	}
	return buf
}

// decodeCounts parses an encodeCounts payload, rejecting a short or
// overlong one.
func decodeCounts(raw []byte) (map[uint64]wireCounts, error) {
	le := binary.LittleEndian
	if len(raw) < 4 {
		return nil, fmt.Errorf("short counter payload: %d bytes", len(raw))
	}
	ncomms := le.Uint32(raw)
	raw = raw[4:]
	out := make(map[uint64]wireCounts, min(int(ncomms), len(raw)/16))
	for c := uint32(0); c < ncomms; c++ {
		if len(raw) < 16 {
			return nil, fmt.Errorf("short counter payload: communicator %d of %d truncated", c+1, ncomms)
		}
		gid, myRank, npeers := le.Uint64(raw), int32(le.Uint32(raw[8:])), le.Uint32(raw[12:])
		raw = raw[16:]
		if uint64(len(raw)) < 12*uint64(npeers) {
			return nil, fmt.Errorf("short counter payload: gid %#x lists %d peers in %d bytes", gid, npeers, len(raw))
		}
		sent := make(map[int]uint64, npeers)
		for p := uint32(0); p < npeers; p++ {
			sent[int(int32(le.Uint32(raw)))] = le.Uint64(raw[4:])
			raw = raw[12:]
		}
		out[gid] = wireCounts{MyRank: int(myRank), SentTo: sent}
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("counter payload has %d trailing bytes", len(raw))
	}
	return out, nil
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobValue(raw []byte, out any) error {
	return gob.NewDecoder(bytes.NewReader(raw)).Decode(out)
}
