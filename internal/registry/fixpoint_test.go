package registry_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/registry"
	_ "repro/internal/registry/all"
)

// TestOneFramePerState: every frame a decoder accepts is the frame its
// encoder writes for the state it decoded, byte for byte. The probe
// takes each family's Example at several sizes and makes the eight
// single-bit flips of every payload byte; each mutant, behind a valid
// header and checksum, is decoded, and an accepted one is re-encoded
// and compared with itself. A padded uvarint, a bool byte other than 0
// and 1, a run out of its encoder's order or a q-digest body that is
// not compressed for its k would each re-encode to other bytes.
func TestOneFramePerState(t *testing.T) {
	sizes, bytesEach := []int{0, 7, 300, 5000}, math.MaxInt
	if testing.Short() || raceEnabled {
		// The whole probe is about 200,000 decodes at 5,000 points: a
		// minute and more under -race, which checks the pooled scratch
		// these decodes share as well at a tenth of them.
		sizes, bytesEach = sizes[:3], 512
	}
	for _, ent := range registry.Entries() {
		t.Run(ent.Name(), func(t *testing.T) {
			t.Parallel()
			dst := ent.New()
			for _, n := range sizes {
				frame := mustEncode(t, ent, ent.Example(n))
				payload := payloadOf(frame)
				mut := append([]byte(nil), payload...)
				bad, first := 0, ""
				for i := range min(len(mut), bytesEach) {
					for bit := 0; bit < 8; bit++ {
						mut[i] ^= 1 << bit
						m := reframe(frame, mut)
						if ent.DecodeInto(dst, m) == nil {
							if again := mustEncode(t, ent, dst); !bytes.Equal(again, m) {
								if bad == 0 {
									first = fmt.Sprintf("payload byte %d bit %d (%#02x -> %#02x)", i, bit, payload[i], mut[i])
								}
								bad++
							}
						}
						mut[i] ^= 1 << bit
					}
				}
				if bad > 0 {
					t.Errorf("n=%d: %d accepted mutants re-encode to other bytes; first: %s", n, bad, first)
				}
			}
		})
	}
}
