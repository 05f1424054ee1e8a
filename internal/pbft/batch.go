package pbft

import (
	"errors"
	"fmt"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// MaxBatchRecords bounds the number of records one batch request may carry.
// It protects decoders against a Byzantine primary inflating a count prefix;
// honest primaries flush far below it (the flush size is a layer config).
const MaxBatchRecords = 4096

// Batch decoding errors.
var (
	ErrBadBatch   = errors.New("pbft: malformed batch payload")
	ErrEmptyBatch = errors.New("pbft: empty batch")
)

// EncodeBatch packs signed records into one batch payload, the Payload of a
// Request with Batch set. Each record keeps its own payload, origin id and
// origin signature, so Algorithm 1's per-record semantics — duplicate-filter
// digests, per-origin attribution, post-operational signature audits —
// survive the coalescing. Inner requests are encoded without a batch flag:
// nested batches are unrepresentable by construction.
func EncodeBatch(items []Request) []byte {
	size := 8
	for i := range items {
		size += len(items[i].Payload) + len(items[i].Sig) + 16
	}
	e := wire.NewEncoder(size)
	e.Uvarint(uint64(len(items)))
	for i := range items {
		e.Bytes(items[i].Payload)
		e.Uint32(uint32(items[i].Origin))
		e.Bytes(items[i].Sig)
	}
	return e.Data()
}

// DecodeBatch unpacks a batch payload into its records. The returned
// requests alias data's payload bytes (the batch outlives its records in
// every caller); their Batch flags are always false. Any structural problem
// — zero records, an inflated count, an empty inner payload, trailing bytes
// — yields an error: a primary proposing such a batch is faulty.
func DecodeBatch(data []byte) ([]Request, error) {
	d := wire.NewDecoder(data)
	n := d.Uvarint()
	if n == 0 {
		return nil, ErrEmptyBatch
	}
	if n > MaxBatchRecords || n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: %d records", ErrBadBatch, n)
	}
	items := make([]Request, 0, n)
	for i := uint64(0); i < n; i++ {
		r := Request{
			Payload: d.Bytes(),
			Origin:  crypto.NodeID(d.Uint32()),
			Sig:     d.Bytes(),
		}
		if len(r.Payload) == 0 {
			return nil, fmt.Errorf("%w: empty record %d", ErrBadBatch, i)
		}
		items = append(items, r)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBatch, err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadBatch)
	}
	return items, nil
}

// VerifyRequestDeep checks r's own signature and, for batch requests, that
// the batch decodes and every inner record carries a valid origin signature.
// This is the admission bar for a proposed request: a batch hiding one forged
// record is rejected whole, so a Byzantine primary cannot launder fabricated
// records through honest records in the same batch.
//
// Inner signatures are settled in one pass of the registry's Ed25519 batch
// verifier instead of a scalar multiplication per record, on the caller's
// goroutine. On failure the error names every corrupt record index, so the
// operator sees exactly which origin signatures were forged while the batch
// as a whole is refused.
func VerifyRequestDeep(r *Request, reg *crypto.Registry) error {
	if err := VerifyRequest(r, reg); err != nil {
		return err
	}
	if !r.Batch {
		return nil
	}
	items, err := DecodeBatch(r.Payload)
	if err != nil {
		return err
	}
	bv := reg.NewBatchVerifier(len(items))
	for i := range items {
		bv.Add(items[i].Origin, items[i].signingBytes(), items[i].Sig)
	}
	switch failed := bv.Verify(); len(failed) {
	case 0:
		return nil
	case 1:
		return fmt.Errorf("batch record %d: %w", failed[0], crypto.ErrInvalidSignature)
	default:
		return fmt.Errorf("batch records %v: %w", failed, crypto.ErrInvalidSignature)
	}
}

// PayloadDigests returns the duplicate-filter digests this request carries:
// the single payload digest for a plain request, or one digest per inner
// record for a batch. A malformed batch yields nil (callers verify batches
// before trusting them; this accessor never re-validates).
func (r *Request) PayloadDigests() []crypto.Digest {
	if !r.Batch {
		return []crypto.Digest{r.PayloadDigest()}
	}
	items, err := DecodeBatch(r.Payload)
	if err != nil {
		return nil
	}
	out := make([]crypto.Digest, len(items))
	for i := range items {
		out[i] = items[i].PayloadDigest()
	}
	return out
}
