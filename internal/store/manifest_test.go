package store

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeManifest feeds arbitrary bytes to the manifest decoder, which
// every Open of a checkpointed directory runs on what it reads from disk. It
// must never panic, and any image it accepts must survive encode → decode
// unchanged. The checked-in corpus under testdata/fuzz is encodeManifest of a
// checkpointed two-table store (employees over two pages, a second table over
// one), that image cut short, with a trailing byte and under format version
// 2, and the empty image.
func FuzzDecodeManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeManifest(data)
		if err != nil {
			return
		}
		enc := encodeManifest(img)
		back, err := decodeManifest(enc)
		if err != nil || !reflect.DeepEqual(back, img) || !bytes.Equal(encodeManifest(back), enc) {
			t.Fatalf("manifest does not survive re-encoding (err %v):\n%+v\n%+v", err, img, back)
		}
	})
}
