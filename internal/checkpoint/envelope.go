package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"crowdmax/internal/faults"
)

// This file exports the container format and codec primitives the session
// checkpoint is built from, so other durable artifacts — the service layer's
// job records, future replay logs — share one framing, one corruption
// discipline, and one atomic-write path instead of reinventing them.
//
// An envelope is: a 4-byte magic, a u32 version, a u32 CRC-32C of the
// payload, a u64 payload length, then the payload. OpenEnvelope fails closed
// (ErrCorrupt, wrapped) on any mismatch, exactly like the session snapshot
// codec it was extracted from.

// SealEnvelope frames payload in the checkpoint container format under the
// given 4-byte magic and version.
func SealEnvelope(magic string, version uint32, payload []byte) []byte {
	if len(magic) != 4 {
		panic(fmt.Sprintf("checkpoint: envelope magic %q is not 4 bytes", magic))
	}
	out := make([]byte, headerSize+len(payload))
	copy(out[headerSize:], payload)
	sealHeader(magic, version, out)
	return out
}

// sealHeader fills the header reserved at the front of b (headerSize
// bytes) for the payload that follows it, so an encoder can build header
// and payload in one buffer without a copy.
func sealHeader(magic string, version uint32, b []byte) {
	payload := b[headerSize:]
	copy(b, magic)
	binary.LittleEndian.PutUint32(b[4:], version)
	binary.LittleEndian.PutUint32(b[8:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint64(b[12:], uint64(len(payload)))
}

// OpenEnvelope validates data against the expected magic and version and
// returns the payload. Every failure mode — short file, wrong magic, version
// skew, length mismatch, checksum mismatch — wraps ErrCorrupt.
func OpenEnvelope(magic string, version uint32, data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorrupt, len(data))
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, data[:4], magic)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, v, version)
	}
	wantSum := binary.LittleEndian.Uint32(data[8:])
	n := binary.LittleEndian.Uint64(data[12:])
	if n != uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: payload length %d does not match %d trailing bytes",
			ErrCorrupt, n, len(data)-headerSize)
	}
	body := data[headerSize:]
	if got := crc32.Checksum(body, castagnoli); got != wantSum {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrCorrupt, wantSum, got)
	}
	return body, nil
}

// OpenEnvelopeAny validates data against the expected magic — but not a
// particular version — and returns the payload together with the version the
// file declares. Callers that support several codec revisions (the session
// snapshot reads v2 through v4) probe with this and dispatch on the version;
// every other failure mode still wraps ErrCorrupt.
func OpenEnvelopeAny(magic string, data []byte) ([]byte, uint32, error) {
	if len(data) < headerSize {
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorrupt, len(data))
	}
	if string(data[:4]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, data[:4], magic)
	}
	v := binary.LittleEndian.Uint32(data[4:])
	wantSum := binary.LittleEndian.Uint32(data[8:])
	n := binary.LittleEndian.Uint64(data[12:])
	if n != uint64(len(data)-headerSize) {
		return nil, 0, fmt.Errorf("%w: payload length %d does not match %d trailing bytes",
			ErrCorrupt, n, len(data)-headerSize)
	}
	body := data[headerSize:]
	if got := crc32.Checksum(body, castagnoli); got != wantSum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrCorrupt, wantSum, got)
	}
	return body, v, nil
}

// Builder is the append side of the little-endian payload codec: fixed-width
// integers, length-prefixed strings, IEEE-754 floats. Strings longer than
// the codec's cap are truncated, mirroring the decode-side bound.
type Builder struct{ p payload }

// Bytes returns the encoded payload so far.
func (b *Builder) Bytes() []byte { return b.p.b }

// U64 appends an unsigned 64-bit integer.
func (b *Builder) U64(v uint64) { b.p.u64(v) }

// I64 appends a signed 64-bit integer.
func (b *Builder) I64(v int64) { b.p.i64(v) }

// Bool appends a boolean as one byte.
func (b *Builder) Bool(v bool) { b.p.bool(v) }

// Str appends a length-prefixed string (truncated at the codec cap).
func (b *Builder) Str(s string) { b.p.str(s) }

// F64 appends a float64 as its IEEE-754 bits.
func (b *Builder) F64(v float64) { b.p.u64(math.Float64bits(v)) }

// Blob appends a length-prefixed byte string (no length cap, unlike Str).
func (b *Builder) Blob(p []byte) {
	b.p.i64(int64(len(p)))
	b.p.b = append(b.p.b, p...)
}

// Reader is the bounds-checked decode side of the payload codec. The first
// inconsistency latches an error wrapping ErrCorrupt and every subsequent
// read returns zero, so decode loops need a single error check at the end.
type Reader struct{ r reader }

// NewReader returns a Reader over an envelope payload.
func NewReader(payload []byte) *Reader { return &Reader{r: reader{b: payload}} }

// U64 reads an unsigned 64-bit integer.
func (r *Reader) U64() uint64 { return r.r.u64() }

// I64 reads a signed 64-bit integer.
func (r *Reader) I64() int64 { return r.r.i64() }

// Bool reads a one-byte boolean.
func (r *Reader) Bool() bool { return r.r.bool() }

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return r.r.str() }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.r.u64()) }

// Blob reads a length-prefixed byte string into a fresh slice (nil when
// empty).
func (r *Reader) Blob() []byte {
	n := r.r.count(1)
	if n <= 0 {
		return nil
	}
	return append([]byte(nil), r.r.take(int(n))...)
}

// Count reads a length prefix and validates it against the remaining bytes
// at elemSize bytes per element, so a forged length can never trigger a huge
// allocation. Returns -1 after a latched error.
func (r *Reader) Count(elemSize int) int64 { return r.r.count(elemSize) }

// Err returns the latched decode error, if any.
func (r *Reader) Err() error { return r.r.err }

// Done returns the latched decode error, or an ErrCorrupt-wrapping error
// when payload bytes remain unread — the standard end-of-decode check.
func (r *Reader) Done() error {
	if r.r.err != nil {
		return r.r.err
	}
	if len(r.r.b) != r.r.off {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.r.b)-r.r.off)
	}
	return nil
}

// WriteFileAtomic writes data to path via a temporary file in the same
// directory, an fsync, and a rename, creating parent directories as needed.
// An interrupted write leaves the previous file (or no file) behind, never a
// truncated one — the write discipline every durable artifact in this
// repository (checkpoints, job records, benchmark results) goes through.
func WriteFileAtomic(path string, data []byte, mode os.FileMode) error {
	return WriteFileAtomicFS(faults.OS(), path, data, mode)
}

// WriteFileAtomicFS is WriteFileAtomic over an injectable filesystem, so
// the atomic-rename protocol itself is testable under disk faults: a torn
// write surfaces as a CRC failure on the next open, an ENOSPC leaves the
// previous file intact, a failed rename never publishes the temp file.
// A nil fsys uses the real filesystem.
func WriteFileAtomicFS(fsys faults.FS, path string, data []byte, mode os.FileMode) error {
	if fsys == nil {
		fsys = faults.OS()
	}
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Chmod(mode)
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = fsys.Rename(name, path)
	}
	if werr != nil {
		fsys.Remove(name)
		return werr
	}
	return nil
}
