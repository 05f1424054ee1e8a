package export

import (
	"errors"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// Export protocol errors.
var (
	// ErrInsufficientDeletes indicates a delete certificate below quorum
	// (§III-D error (iii)).
	ErrInsufficientDeletes = errors.New("export: insufficient matching deletes")
	// ErrReadTimeout indicates too few read replies arrived in time.
	ErrReadTimeout = errors.New("export: timed out waiting for read replies")
	// ErrNoCheckpoint indicates no verifiable stable checkpoint was
	// offered by any replica.
	ErrNoCheckpoint = errors.New("export: no valid stable checkpoint received")
)

// signableMsg mirrors pbft's internal signing convention: the signature
// covers the wire encoding with the Sig field emptied. Sig MUST be the final
// field of every signableMsg's encoding, written with Encoder.Bytes, as
// wire.SigningBytesInto requires; TestSigningBytesMatchesReference guards
// it for every export message.
type signableMsg interface {
	wire.Message
	signer() crypto.NodeID
	signature() []byte
	setSignature(sig []byte)
}

func (m *ReadRequest) signer() crypto.NodeID   { return m.DC }
func (m *ReadRequest) signature() []byte       { return m.Sig }
func (m *ReadRequest) setSignature(sig []byte) { m.Sig = sig }

func (m *ReadReply) signer() crypto.NodeID   { return m.Replica }
func (m *ReadReply) signature() []byte       { return m.Sig }
func (m *ReadReply) setSignature(sig []byte) { m.Sig = sig }

func (m *Delete) signer() crypto.NodeID   { return m.DC }
func (m *Delete) signature() []byte       { return m.Sig }
func (m *Delete) setSignature(sig []byte) { m.Sig = sig }

func (m *DeleteAck) signer() crypto.NodeID   { return m.Replica }
func (m *DeleteAck) signature() []byte       { return m.Sig }
func (m *DeleteAck) setSignature(sig []byte) { m.Sig = sig }

func (m *StateRequest) signer() crypto.NodeID   { return m.Replica }
func (m *StateRequest) signature() []byte       { return m.Sig }
func (m *StateRequest) setSignature(sig []byte) { m.Sig = sig }

func (m *StateReply) signer() crypto.NodeID   { return m.Replica }
func (m *StateReply) signature() []byte       { return m.Sig }
func (m *StateReply) setSignature(sig []byte) { m.Sig = sig }

func signMsg(m signableMsg, kp *crypto.KeyPair) {
	e := wire.GetEncoder()
	m.setSignature(kp.Sign(wire.SigningBytesInto(e, m, m.signature())))
	wire.PutEncoder(e)
}

func verifyMsg(m signableMsg, reg *crypto.Registry) error {
	e := wire.GetEncoder()
	err := reg.Verify(m.signer(), wire.SigningBytesInto(e, m, m.signature()), m.signature())
	wire.PutEncoder(e)
	return err
}
