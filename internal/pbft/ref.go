package pbft

import (
	"encoding/binary"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// PayloadSource is an optional extension of Application: the payloads this
// replica already holds, looked up by payload digest. Every ZugChain node
// reads the same bus frame itself (§III-B), so a backup usually holds the
// payload of a proposal before the proposal arrives. When the application
// implements PayloadSource, the runner sends its own proposals as
// PrePrepareRefs and rebuilds inbound ones from the source (DESIGN.md §3.14).
//
// Payload is called from transport delivery goroutines, concurrently with
// the event loop, so implementations must be safe for concurrent use. The
// returned slice is aliased into the rebuilt request and must never be
// mutated afterwards.
type PayloadSource interface {
	Payload(d crypto.Digest) ([]byte, bool)
}

// PrePrepareRef is the wire form of a primary's normal-case proposal to
// backups that read the payload themselves. PrePrepare is the signed
// message with its payload replaced by the reference payloadRef builds: the
// encoding is the PrePrepare's own under a different tag. A ref is not
// signable: the backup rebuilds the full PrePrepare (hydrate), and the
// envelope signature then checks the full bytes.
type PrePrepareRef struct {
	PrePrepare PrePrepare
}

// WireType implements wire.Message.
func (m *PrePrepareRef) WireType() wire.Type { return typePrePrepareRef }

// EncodeWire implements wire.Message.
func (m *PrePrepareRef) EncodeWire(e *wire.Encoder) { m.PrePrepare.EncodeWire(e) }

// DecodeWire implements wire.Message.
func (m *PrePrepareRef) DecodeWire(d *wire.Decoder) { m.PrePrepare.DecodeWire(d) }

// newPrePrepareRef returns the reference form of the signed pp, or nil when
// pp carries a batch that does not decode.
func newPrePrepareRef(pp *PrePrepare) *PrePrepareRef {
	ref, ok := payloadRef(&pp.Req)
	if !ok {
		return nil
	}
	m := &PrePrepareRef{PrePrepare: *pp}
	m.PrePrepare.Req.Payload = ref
	return m
}

// payloadRef is what a PrePrepareRef carries in place of req's payload: the
// 32-byte payload digest of a plain request, or, for a batch, the
// EncodeBatch encoding with every inner payload replaced by its digest, so
// each inner record keeps its origin and signature. A null request's
// reference is empty, like its payload. A malformed batch has none.
func payloadRef(req *Request) ([]byte, bool) {
	if req.IsNull() {
		return nil, true
	}
	if !req.Batch {
		d := req.PayloadDigest()
		return d[:], true
	}
	items, err := DecodeBatch(req.Payload)
	if err != nil {
		return nil, false
	}
	for i := range items {
		d := items[i].PayloadDigest()
		items[i].Payload = d[:]
	}
	return EncodeBatch(items), true
}

// hydrate rebuilds the full PrePrepare from m with the payloads src holds.
// It reports false when a payload is missing or the reference is malformed;
// the backup then fetches the full message from the primary. Nothing here
// is trusted: a payload that does not match its reference fails the
// envelope signature, and the request signatures cover the payload digests.
func (m *PrePrepareRef) hydrate(src PayloadSource) (*PrePrepare, bool) {
	pp := m.PrePrepare
	if pp.Req.IsNull() {
		return &pp, true
	}
	if src == nil {
		return nil, false
	}
	if !pp.Req.Batch {
		payload, ok := lookupPayload(src, pp.Req.Payload)
		if !ok {
			return nil, false
		}
		pp.Req.Payload = payload
		return &pp, true
	}
	items, err := DecodeBatch(pp.Req.Payload)
	if err != nil {
		return nil, false
	}
	for i := range items {
		payload, ok := lookupPayload(src, items[i].Payload)
		if !ok {
			return nil, false
		}
		items[i].Payload = payload
	}
	pp.Req.Payload = EncodeBatch(items)
	return &pp, true
}

func lookupPayload(src PayloadSource, ref []byte) ([]byte, bool) {
	if len(ref) != len(crypto.Digest{}) {
		return nil, false
	}
	return src.Payload(crypto.Digest(ref))
}

// IsProposal reports, without decoding, whether data encodes a primary's
// proposal in either wire form: a full PrePrepare or a PrePrepareRef.
func IsProposal(data []byte) bool {
	if len(data) < 2 {
		return false
	}
	t := wire.Type(binary.LittleEndian.Uint16(data))
	return t == typePrePrepare || t == typePrePrepareRef
}

// PrePrepareFetch asks the primary for the full PrePrepare at (View, Seq)
// after a backup could not rebuild a PrePrepareRef. It is unsigned: the
// answer is the primary's own signed PrePrepare, sent at most once per
// (peer, seq) (see Engine.onFetch).
type PrePrepareFetch struct {
	View uint64
	Seq  uint64
}

// WireType implements wire.Message.
func (m *PrePrepareFetch) WireType() wire.Type { return typePrePrepareFetch }

// EncodeWire implements wire.Message.
func (m *PrePrepareFetch) EncodeWire(e *wire.Encoder) {
	e.Uint64(m.View)
	e.Uint64(m.Seq)
}

// DecodeWire implements wire.Message.
func (m *PrePrepareFetch) DecodeWire(d *wire.Decoder) {
	m.View = d.Uint64()
	m.Seq = d.Uint64()
}

// fetchKey identifies one answered PrePrepareFetch.
type fetchKey struct {
	peer crypto.NodeID
	seq  uint64
}

// inlinePeer is the primary's view of a backup that fetched: it is sent
// full PrePrepares. After a stable checkpoint the primary probes it with one
// reference (probe is that proposal's seq, 0 while the probe is due): a
// fetch for the probe keeps the peer inline, a Prepare for it shows the
// peer reads the bus again and returns it to references.
type inlinePeer struct {
	probing bool
	probe   uint64
}

// onFetch answers a backup that could not rebuild this primary's proposal
// at f.Seq: it re-sends the signed PrePrepare from the log, and from then
// until the next stable checkpoint sends that peer full PrePrepares
// (proposalInline), so a backup that cannot read the bus costs about one
// fetch per checkpoint interval rather than one per record. Only this
// replica's own proposals in the current view and within the watermarks
// are answered, once per (peer, seq); a fetch left unanswered is a
// withheld PrePrepare, which Algorithm 1's timeouts already cover.
func (e *Engine) onFetch(from crypto.NodeID, f *PrePrepareFetch) []Action {
	if from == e.cfg.ID || !e.isReplica(from) || e.inViewChange ||
		f.View != e.view || !e.inWatermarks(f.Seq) {
		return nil
	}
	inst, ok := e.log[f.Seq]
	if !ok || inst.preprepare == nil || inst.view != e.view || inst.preprepare.Replica != e.cfg.ID {
		return nil
	}
	key := fetchKey{peer: from, seq: f.Seq}
	if e.fetched[key] {
		return nil
	}
	if e.fetched == nil {
		e.fetched = make(map[fetchKey]bool)
		e.inline = make(map[crypto.NodeID]*inlinePeer)
	}
	e.fetched[key] = true
	e.inline[from] = &inlinePeer{}
	return []Action{SendAction{To: from, Msg: inst.preprepare}}
}

// proposalInline reports whether this primary's proposal at seq goes to
// peer in full rather than by reference: peer fetched since the last
// stable checkpoint, or is being probed and this is not the probe.
func (e *Engine) proposalInline(peer crypto.NodeID, seq uint64) bool {
	st, ok := e.inline[peer]
	if !ok {
		return false
	}
	if st.probing && st.probe == 0 {
		st.probe = seq
		return false
	}
	return true
}

// probePrepared returns a probed peer to references once it prepares the
// probe without having fetched it: a fetch reaches the engine before the
// Prepare that follows it (it skips signature verification) and ends the
// probation first.
func (e *Engine) probePrepared(p *Prepare) {
	if st, ok := e.inline[p.Replica]; ok && st.probing && st.probe == p.Seq {
		delete(e.inline, p.Replica)
	}
}

func (e *Engine) isReplica(id crypto.NodeID) bool {
	for _, r := range e.cfg.Replicas {
		if r == id {
			return true
		}
	}
	return false
}

// gcFetches retires the fetch state a new stable checkpoint at seq covers
// and puts every inline peer on probation.
func (e *Engine) gcFetches(seq uint64) {
	for k := range e.fetched {
		if k.seq <= seq {
			delete(e.fetched, k)
		}
	}
	for _, st := range e.inline {
		*st = inlinePeer{probing: true}
	}
}
