package link_test

import (
	"reflect"
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/link"
)

// FuzzDecode feeds the image decoder arbitrary bytes. Decode must never
// panic, and any image it accepts must survive a round trip: its
// encoding decodes again, to an equal image. The seeds are the encoded
// images of the eight benchmark programs plus truncations of them;
// testdata/fuzz/FuzzDecode holds inputs that once broke the decoder.
func FuzzDecode(f *testing.F) {
	for _, name := range bench.Names {
		w, err := bench.Build(name, bench.DefaultCodegen())
		if err != nil {
			f.Fatal(err)
		}
		enc := w.Image.Encode()
		f.Add(enc)
		for _, n := range []int{0, 3, 4, 24, len(enc) / 2, len(enc) - 1} {
			f.Add(enc[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := link.Decode(data)
		if err != nil {
			return
		}
		again, err := link.Decode(img.Encode())
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if !reflect.DeepEqual(img, again) {
			t.Fatalf("round trip changed the image:\nfirst:  %+v\nsecond: %+v", img, again)
		}
	})
}
