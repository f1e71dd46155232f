package service

import (
	"bytes"
	"testing"

	"crowdmax/internal/checkpoint"
)

// FuzzDecodeRecord throws arbitrary bytes — seeded with exactly the shapes
// injected disk faults produce: torn-write prefixes of a valid record at
// several fractions, a zero-byte file, foreign magic, and bit-flipped valid
// records — at the job-record decoder. The decoder must never panic, and any
// record it does accept must re-encode to bytes it accepts again, decoding
// to the same job (otherwise a recovered server could persist a record its
// own next boot quarantines).
func FuzzDecodeRecord(f *testing.F) {
	j := mkJob("j00000042", "fuzz")
	j.Spec.DeadlineSeconds = 2.5
	j.Spec.IdempotencyKey = "key-1"
	full := encodeRecord(j)
	f.Add(full)
	j.events.Write([]byte(`{"seq":1,"ev":"job","state":"done"}` + "\n"))
	f.Add(encodeRecord(j))
	f.Add([]byte{})
	// ModeTorn persists a fraction of the buffer but reports success; these
	// prefixes are byte-for-byte what lands on disk after a torn write.
	for _, frac := range []int{1, 4, 10} {
		f.Add(full[:len(full)*frac/10])
	}
	f.Add(checkpoint.SealEnvelope("XXXX", 1, []byte("not a record")))
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeRecord(data)
		if err != nil {
			return
		}
		re := encodeRecord(got)
		again, err := decodeRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if !bytes.Equal(encodeRecord(again), re) {
			t.Fatalf("record did not round-trip: % x vs % x", encodeRecord(again), re)
		}
	})
}
