package trace

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func sample() *Image {
	return &Image{
		Benchmark: "sample",
		Areas: []Area{
			{Name: "heap0", Size: 8192, NVM: true, Write: true},
			{Name: "stack", Size: 4096, Write: true},
		},
		Records: []Record{
			{Period: 1, Offset: 0, Op: Read, Size: 8, Area: 0},
			{Period: 2, Offset: 64, Op: Write, Size: 8, Area: 0},
			{Period: 2, Offset: 16, Op: Write, Size: 4, Area: 1},
			{Period: 9, Offset: 8000, Op: Read, Size: 64, Area: 0},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	img := sample()
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != img.Benchmark {
		t.Fatal("name lost")
	}
	for i := range img.Records {
		if got.Records[i] != img.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, got.Records[i], img.Records[i])
		}
	}
	for i := range img.Areas {
		if got.Areas[i] != img.Areas[i] {
			t.Fatalf("area %d mismatch", i)
		}
	}
}

// TestRecordLayout pins Record at 24 bytes: every trace the process holds
// is an array of them, so a field that grows the record grows them all.
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 24 {
		t.Fatalf("Record is %d bytes, want 24", n)
	}
}

// TestAreaLimit: an image has at most 65,536 areas, as many as the 16-bit
// Record.Area indexes. Every writer refuses one more, every binary reader
// refuses a header that declares one more, and the text reader refuses an
// area index that does not fit.
func TestAreaLimit(t *testing.T) {
	areas := make([]Area, maxAreas+1)
	for i := range areas {
		areas[i] = Area{Name: "a", Size: 4096}
	}
	if err := ValidateHeader("b", areas[:maxAreas]); err != nil {
		t.Fatalf("ValidateHeader refused %d areas: %v", maxAreas, err)
	}
	// The last index of a full table survives both binary formats.
	full := &Image{Benchmark: "b", Areas: areas[:maxAreas], Records: []Record{{Period: 1, Size: 8, Area: maxAreas - 1}}}
	var v1ok, v2ok bytes.Buffer
	if err := Encode(&v1ok, full); err != nil {
		t.Fatal(err)
	}
	if err := EncodeV2(&v2ok, full, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{v1ok.Bytes(), v2ok.Bytes()} {
		img, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if len(img.Records) != 1 || img.Records[0] != full.Records[0] {
			t.Fatalf("decoded %+v, want %+v", img.Records, full.Records)
		}
	}

	over := &Image{Benchmark: "b", Areas: areas, Records: []Record{{Period: 1, Size: 8}}}
	header := func(version uint32) []byte {
		p, err := appendHeader(nil, version, "b", areas)
		if err != nil {
			t.Fatal(err)
		}
		return append(p, 0) // no records, or the chunk terminator
	}
	v1, v2 := header(formatVer), header(formatVer2)
	const (
		written = "image has 65537 areas, limit 65536"
		read    = "area count 65537 exceeds limit 65536"
	)
	for _, c := range []struct {
		name string
		want string
		run  func() error
	}{
		{"ValidateHeader", written, func() error { return ValidateHeader("b", areas) }},
		{"Encode", written, func() error { return Encode(io.Discard, over) }},
		{"EncodeV2", written, func() error { return EncodeV2(io.Discard, over, StreamOptions{}) }},
		{"NewStreamWriter", written, func() error {
			_, err := NewStreamWriter(io.Discard, "b", areas, StreamOptions{})
			return err
		}},
		{"OpenStream v1", read, func() error { _, err := OpenStream(bytes.NewReader(v1)); return err }},
		{"OpenStream v2", read, func() error { _, err := OpenStream(bytes.NewReader(v2)); return err }},
		{"Decode v1", read, func() error { _, err := Decode(bytes.NewReader(v1)); return err }},
		{"Decode v2", read, func() error { _, err := Decode(bytes.NewReader(v2)); return err }},
		{"ScanChunkIndex v1", read, func() error { _, err := ScanChunkIndex(bytes.NewReader(v1)); return err }},
		{"ScanChunkIndex v2", read, func() error { _, err := ScanChunkIndex(bytes.NewReader(v2)); return err }},
		{"DecodeText", `area: strconv.ParseUint: parsing "65536": value out of range`, func() error {
			_, err := DecodeText(strings.NewReader("benchmark b\narea a 4096 0 1\n1 65536 0 R 8\n"))
			return err
		}},
	} {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want %q", c.name, err, c.want)
		}
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("op strings")
	}
}

func TestMix(t *testing.T) {
	img := sample()
	r, w := img.Mix()
	if r != 50 || w != 50 {
		t.Fatalf("mix %v/%v", r, w)
	}
	empty := &Image{Benchmark: "e", Areas: []Area{{Name: "a", Size: 4096}}}
	if r, w := empty.Mix(); r != 0 || w != 0 {
		t.Fatal("empty mix nonzero")
	}
}

func TestFootprint(t *testing.T) {
	if got := sample().Footprint(); got != 12288 {
		t.Fatalf("footprint %d", got)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	img := sample()
	img.Records[0].Area = 99
	var buf bytes.Buffer
	if err := Encode(&buf, img); err == nil {
		t.Fatal("invalid image encoded")
	}
}

func TestEncodeLongNameRejected(t *testing.T) {
	img := sample()
	img.Areas[0].Name = string(make([]byte, 300))
	// Area overrun check happens first in Validate? The name length check
	// fires during encoding.
	var buf bytes.Buffer
	if err := Encode(&buf, img); err == nil {
		t.Fatal("300-byte name encoded")
	}
}

func TestDecodeTruncated(t *testing.T) {
	img := sample()
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail cleanly, never panic.
	for cut := 0; cut < len(full); cut += 3 {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated image at %d bytes decoded", cut)
		}
	}
}

func TestDecodeWrongVersion(t *testing.T) {
	img := sample()
	var buf bytes.Buffer
	Encode(&buf, img)
	b := buf.Bytes()
	b[4] = 99 // version field
	if _, err := Decode(bytes.NewReader(b)); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestValidateAreaOverrun(t *testing.T) {
	img := sample()
	img.Records[0] = Record{Period: 1, Offset: 8190, Size: 8, Area: 0}
	if img.Validate() == nil {
		t.Fatal("overrun accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(offs []uint16, writes []bool) bool {
		img := &Image{Benchmark: "prop", Areas: []Area{{Name: "a", Size: 1 << 17, Write: true}}}
		for i, off := range offs {
			op := Read
			if i < len(writes) && writes[i] {
				op = Write
			}
			img.Records = append(img.Records, Record{
				Period: uint64(i + 1),
				Offset: uint64(off),
				Op:     op,
				Size:   4,
				Area:   0,
			})
		}
		var buf bytes.Buffer
		if err := Encode(&buf, img); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || len(got.Records) != len(img.Records) {
			return false
		}
		for i := range img.Records {
			if got.Records[i] != img.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeImageCompression(t *testing.T) {
	// Delta-encoded periods keep large sequential traces compact: under
	// ~8 bytes per record for this access pattern.
	img := &Image{Benchmark: "large", Areas: []Area{{Name: "a", Size: 1 << 20, Write: true}}}
	for i := 0; i < 100000; i++ {
		img.Records = append(img.Records, Record{
			Period: uint64(i),
			Offset: uint64(i*64) % (1 << 20),
			Op:     Op(i % 2),
			Size:   8,
			Area:   0,
		})
	}
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	if perRec := buf.Len() / len(img.Records); perRec > 8 {
		t.Fatalf("encoding too fat: %d bytes/record", perRec)
	}
	got, err := Decode(&buf)
	if err != nil || len(got.Records) != 100000 {
		t.Fatalf("large round trip: %v", err)
	}
}

type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > 100 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func TestEncodeWriterError(t *testing.T) {
	img := sample()
	for i := 0; i < 1000; i++ {
		img.Records = append(img.Records, Record{Period: uint64(10 + i), Size: 8, Area: 0})
	}
	if err := Encode(&failingWriter{}, img); err == nil {
		t.Fatal("writer failure swallowed")
	}
}

func TestTextRoundTrip(t *testing.T) {
	img := sample()
	var buf bytes.Buffer
	if err := EncodeText(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != img.Benchmark || len(got.Areas) != len(img.Areas) {
		t.Fatal("headers lost")
	}
	for i := range img.Records {
		if got.Records[i] != img.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, got.Records[i], img.Records[i])
		}
	}
}

func TestTextFormatTolerant(t *testing.T) {
	in := `
# a comment
benchmark demo

area heap 8192 1 1
# records
1 0 0 R 8
2 0 64 W 16
`
	img, err := DecodeText(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if img.Benchmark != "demo" || len(img.Records) != 2 || img.Records[1].Op != Write {
		t.Fatalf("parsed %+v", img)
	}
	if !img.Areas[0].NVM || !img.Areas[0].Write {
		t.Fatal("area flags lost")
	}
}

func TestTextFormatErrors(t *testing.T) {
	bad := []string{
		"benchmark a\narea h 4096 1 1\n1 0 0 X 8\n", // bad op
		"benchmark a\narea h 4096 1 1\n1 0 0 R\n",   // short record
		"benchmark a\narea h oops 1 1\n",            // bad size
		"benchmark a b c\n",                         // bad benchmark line
		"benchmark a\narea h 4096 1 1\n1 9 0 R 8\n", // bad area ref
		"benchmark a\narea h 4096 1 1\nx 0 0 R 8\n", // bad period
	}
	for i, in := range bad {
		if _, err := DecodeText(bytes.NewBufferString(in)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// goldenImage reconstructs the image stored in testdata/golden_v1.img. The
// file was written by the v1 encoder and is never regenerated: it stands in
// for images produced by prior releases.
func goldenImage() *Image {
	img := &Image{
		Benchmark: "golden",
		Areas: []Area{
			{Name: "heap0", Size: 65536, NVM: true, Write: true},
			{Name: "heap1", Size: 16384, NVM: true, Write: false},
			{Name: "stack.tid0", Size: 4096, Write: true},
		},
	}
	offs := []uint64{0, 1, 63, 64, 127, 128, 4095, 16383, 65528, 300, 70, 8}
	period := uint64(1)
	for i := 0; i < 64; i++ {
		area := uint16(i % 3)
		limit := img.Areas[area].Size
		off := offs[i%len(offs)] % (limit - 8)
		op := Read
		if area != 1 && i%3 == 0 {
			op = Write
		}
		period += uint64(i % 7)
		img.Records = append(img.Records, Record{
			Period: period, Offset: off, Op: op, Size: uint32(4 << (i % 3)), Area: area,
		})
	}
	return img
}

// TestGoldenV1Decodes pins backward compatibility: a v1 image written by a
// prior release must keep decoding bit-exactly, through both Decode and the
// streaming path.
func TestGoldenV1Decodes(t *testing.T) {
	data, err := os.ReadFile("testdata/golden_v1.img")
	if err != nil {
		t.Fatal(err)
	}
	want := goldenImage()
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != want.Benchmark || len(got.Areas) != len(want.Areas) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range want.Areas {
		if got.Areas[i] != want.Areas[i] {
			t.Fatalf("area %d: %+v != %+v", i, got.Areas[i], want.Areas[i])
		}
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("records: %d != %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, got.Records[i], want.Records[i])
		}
	}
	// The v1 encoder must keep producing those exact bytes (images round
	// trip across releases in both directions).
	var reenc bytes.Buffer
	if err := Encode(&reenc, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc.Bytes(), data) {
		t.Fatal("v1 encoder no longer reproduces the golden bytes")
	}
}

// TestDecodeErrorsDescriptive pins the error contract of the binary
// decoders: truncated or corrupt input yields an error naming the file
// offset and what was being read — never a silently short or zero-padded
// record list.
func TestDecodeErrorsDescriptive(t *testing.T) {
	img := sample()
	var v1buf bytes.Buffer
	if err := Encode(&v1buf, img); err != nil {
		t.Fatal(err)
	}
	v1 := v1buf.Bytes()
	mut := func(data []byte, off int, val byte) []byte {
		out := append([]byte(nil), data...)
		out[off] = val
		return out
	}
	// The full v1 header (magic, version, benchmark, area table) of
	// sample() spans 34 bytes; the record count varint follows.
	hugeCount := append([]byte(nil), v1[:34]...)
	hugeCount = append(hugeCount, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	cases := []struct {
		name string
		data []byte
		want []string // substrings the error must contain
	}{
		{"empty", nil, []string{"offset 0"}},
		{"magic only", v1[:4], []string{"offset", "version"}},
		{"bad magic", mut(v1, 0, 0xAA), []string{"offset 0", "magic"}},
		{"bad version", mut(v1, 4, 99), []string{"offset 4", "version"}},
		{"cut in benchmark name", v1[:10], []string{"offset", "benchmark"}},
		{"cut mid areas", v1[:16], []string{"offset"}},
		{"cut mid records", v1[:len(v1)-3], []string{"offset", "record"}},
		{"implausible record count", hugeCount, []string{"record count"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Decode(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("decoded %d records from corrupt input", len(got.Records))
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

// TestDecodeNoZeroTail guards the original bug class: a record stream that
// ends early must error, not fill the tail with zero-value records.
func TestDecodeNoZeroTail(t *testing.T) {
	img := sample()
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := len(full) - 1; cut > len(full)-12; cut-- {
		got, err := Decode(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut %d: decoded without error", cut)
		}
		if got != nil {
			t.Fatalf("cut %d: returned image alongside error", cut)
		}
	}
}
