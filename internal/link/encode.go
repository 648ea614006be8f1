package link

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// The stable image encoding: a self-contained little-endian byte form of
// an Image that round-trips exactly and is deterministic — equal images
// produce equal bytes (the symbol table is emitted in sorted name order),
// so the encoding doubles as a content address for result caches and
// future on-disk persistence.
//
// Layout (all integers little-endian uint32):
//
//	magic "GPA\x01" | nWords TextWords Entry nSyms nRelocs |
//	words… | (nameLen name addr)… | relocs…

var imageMagic = [4]byte{'G', 'P', 'A', 1}

// Encode serializes the image into its stable byte form.
func (img *Image) Encode() []byte {
	names := make([]string, 0, len(img.Symbols))
	for n := range img.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)

	size := 4 + 5*4 + 4*len(img.Words) + 4*len(img.Relocs)
	for _, n := range names {
		size += 8 + len(n)
	}
	out := make([]byte, 0, size)
	out = append(out, imageMagic[:]...)
	u32 := func(v int) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		out = append(out, b[:]...)
	}
	u32(len(img.Words))
	u32(img.TextWords)
	u32(img.Entry)
	u32(len(names))
	u32(len(img.Relocs))
	for _, w := range img.Words {
		u32(int(w))
	}
	for _, n := range names {
		u32(len(n))
		out = append(out, n...)
		u32(img.Symbols[n])
	}
	for _, r := range img.Relocs {
		u32(r)
	}
	return out
}

// Decode reverses Encode, validating the framing.
func (img *Image) decodeInto(data []byte) error {
	pos := 0
	u32 := func() (uint32, bool) {
		if pos+4 > len(data) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		return v, true
	}
	if len(data) < 4 || string(data[:4]) != string(imageMagic[:]) {
		return errf("decode: bad magic (not a graphpa image)")
	}
	pos = 4
	nWords, ok1 := u32()
	textWords, ok2 := u32()
	entry, ok3 := u32()
	nSyms, ok4 := u32()
	nRelocs, ok5 := u32()
	if !(ok1 && ok2 && ok3 && ok4 && ok5) {
		return errf("decode: truncated header")
	}
	if int(textWords) > int(nWords) {
		return errf("decode: TextWords %d exceeds image size %d", textWords, nWords)
	}
	if pos+4*int(nWords) > len(data) {
		return errf("decode: truncated word section")
	}
	img.Words = make([]uint32, nWords)
	for i := range img.Words {
		img.Words[i], _ = u32()
	}
	img.TextWords = int(textWords)
	img.Entry = int(entry)
	// Every count is checked against the bytes left before anything is
	// sized by it: a symbol takes at least 8 bytes, a relocation 4, so a
	// corrupt count fails here instead of allocating gigabytes.
	if int(nSyms) > (len(data)-pos)/8 {
		return errf("decode: truncated symbol table")
	}
	img.Symbols = make(map[string]int, nSyms)
	for i := 0; i < int(nSyms); i++ {
		nameLen, ok := u32()
		if !ok || pos+int(nameLen) > len(data) {
			return errf("decode: truncated symbol table")
		}
		name := string(data[pos : pos+int(nameLen)])
		pos += int(nameLen)
		addr, ok := u32()
		if !ok {
			return errf("decode: truncated symbol table")
		}
		if _, dup := img.Symbols[name]; dup {
			return errf("decode: duplicate symbol %q", name)
		}
		img.Symbols[name] = int(addr)
	}
	if int(nRelocs) > (len(data)-pos)/4 {
		return errf("decode: truncated relocation table")
	}
	if nRelocs > 0 {
		img.Relocs = make([]int, nRelocs)
		for i := range img.Relocs {
			v, ok := u32()
			if !ok {
				return errf("decode: truncated relocation table")
			}
			img.Relocs[i] = int(v)
		}
	}
	if pos != len(data) {
		return errf("decode: %d trailing bytes", len(data)-pos)
	}
	return nil
}

// Decode parses a stable encoding back into an Image.
func Decode(data []byte) (*Image, error) {
	img := &Image{}
	if err := img.decodeInto(data); err != nil {
		return nil, err
	}
	return img, nil
}

// Hash returns the hex SHA-256 of the stable encoding — the image's
// content address.
func (img *Image) Hash() string {
	return ContentAddress(img.Encode())
}

// ContentAddress returns the hex SHA-256 of data — the address form
// Image.Hash uses for the stable image encoding.
func ContentAddress(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
