// Copyright (c) 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package edwards25519 implements group logic for the twisted Edwards curve
//
//	-x^2 + y^2 = 1 + -(121665/121666)*x^2*y^2
//
// This is the curve underlying Ed25519. The implementation is vendored from
// the Go standard library (crypto/internal/fips140/edwards25519, go1.24),
// which in turn descends from filippo.io/edwards25519 — the only changes are
// the import paths (the stdlib-internal subtle/byteorder helpers are replaced
// by crypto/subtle and encoding/binary) and three additions:
// VarTimeMultiScalarBaseMult (multiscalar.go), the multi-scalar
// multiplication primitive ZugChain's Ed25519 batch verifier is built on;
// MultByCofactor (ported from filippo.io/edwards25519), which the
// cofactored verification equation uses to clear small-order torsion; and
// BytesMontgomery (likewise ported), which maps a replica's Ed25519 public
// key to the X25519 key its pairwise Commit MAC keys are agreed with.
// The original license is retained in LICENSE.
//
// The vendoring exists because ZugChain's ordering hot path is bound by
// sequential crypto/ed25519.Verify calls, batch verification needs direct
// access to the group arithmetic, and this repository builds without network
// access to fetch filippo.io/edwards25519.
package edwards25519
