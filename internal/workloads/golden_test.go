package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"kindle/internal/trace"
)

// generatorGolden holds SHA-256 digests of the generators' output, recorded
// once and never regenerated: a faster generator or writer must reproduce
// the same graph, the same record streams and the same image bytes.
// TestWorkloadDeterminism only compares two runs of one build; these pin
// the output across builds.
var generatorGolden = map[string]string{
	"rmat/131072x8/seed42":  "5afe3d5234ec8fba85f6f58458a639a43e4afa3e715498acc17f50f01ed693c4",
	"pagerank/records":      "6d82b7d88b371484e7f724e77957fd353a7b1487357616821d370b16a0c387eb",
	"pagerank/v2":           "fd757fe9cc5ac5feb7ae702e424465ac94d3c54adf3e33be917c8aec61ef671d",
	"pagerank/v2/chunk4096": "943916656086a77d97e63816c4ea3f6476b1a1d52445286baafc5160670da4d9",
	"pagerank/v2/raw":       "ecf554bf40a2143ee93d78b9063107db4198e428861850f3db6f3aa58212ef5d",
	"sssp/records":          "64b3377dfb37e2f3b96c42c7903acf7677d2e501ceedf4f9b656f1ca7f4694dd",
	"sssp/v2":               "b4526f56842a8cc5d2fd85505f2d45541b1701f5dbc2e6779d269a29ad703169",
	"sssp/v2/chunk4096":     "0087c6259680e6edb63df377083afa4c1ecdd0181106bb8cccb28a01c4273edb",
	"sssp/v2/raw":           "5a157d94505b9b345c2c9bcf893bb11819c651808901c3e5e5f8a5d5fb8eca4d",
	"ycsb/records":          "0e07d7cb274c94a0c1323e748f4e8295e7ed8b0ee7ba08c91bd91b155097b31e",
	"ycsb/v2":               "3533371c70d6b445570864c5b45744b6a7b772ca27a1e837a9939ec58c20e0e0",
	"ycsb/v2/chunk4096":     "eeef3730ad1ada6e130b4c15b6f87f026f8df6eb39f4ce40bb167c7ced68a0f7",
	"ycsb/v2/raw":           "02a27a540521e090fe11c57f6e45462efa177cf03fbe79fe1da1bd4ba750edfd",
	"ycsbmt/records":        "7fa06dd8d6fc9fb0f4259b1c4c472009b47332601fd1646381f575cc6c815909",
	"ycsbmt/v2":             "f2c7ad75271e445f8f8ffaf9259253252b0ff63b4720277abe1c64724b3fbd64",
	"ycsbmt/v2/chunk4096":   "62a781ab94b36b85f506c082973c95e2cf9bc6479c7540e181a657c0da3abc96",
	"ycsbmt/v2/raw":         "4e659d3d3695162c673a40ffc7245b6e1b8906ffe508e8a1c6da6bd1978c2e41",
}

// hashWords feeds little-endian fixed-width values to h.
func hashWords[T uint8 | uint32 | uint64](h hash.Hash, vs []T) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

// recordDigest hashes an image's header and its records field by field, so
// the digest does not depend on the Record struct's memory layout.
func recordDigest(img *trace.Image) string {
	h := sha256.New()
	h.Write([]byte(img.Benchmark))
	for _, a := range img.Areas {
		h.Write([]byte(a.Name))
		hashWords(h, []uint64{a.Size, boolWord(a.NVM), boolWord(a.Write)})
	}
	for _, r := range img.Records {
		hashWords(h, []uint64{r.Period, r.Offset, uint64(r.Op), uint64(r.Size), uint64(r.Area)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestGeneratorGolden checks the R-MAT graph behind the paper-scale graph
// workloads, the record streams of every workload at its Small config, and
// those images' v2 encodings at default chunks, 4,096-record chunks and
// uncompressed against digests recorded before any generator or writer
// optimization.
func TestGeneratorGolden(t *testing.T) {
	got := map[string]string{}

	g := GenRMAT(1<<17, 8, 42)
	h := sha256.New()
	hashWords(h, g.Offsets)
	hashWords(h, g.Edges)
	hashWords(h, g.Weights)
	got["rmat/131072x8/seed42"] = hex.EncodeToString(h.Sum(nil))

	gens := []struct {
		name string
		gen  func() (*trace.Image, error)
	}{
		{"pagerank", func() (*trace.Image, error) { return PageRank(SmallPageRank()) }},
		{"sssp", func() (*trace.Image, error) { return SSSP(SmallSSSP()) }},
		{"ycsb", func() (*trace.Image, error) { return YCSB(SmallYCSB()) }},
		{"ycsbmt", func() (*trace.Image, error) { return YCSBMT(SmallYCSBMT()) }},
	}
	encodings := []struct {
		name string
		opt  trace.StreamOptions
	}{
		{"v2", trace.StreamOptions{}},
		{"v2/chunk4096", trace.StreamOptions{ChunkRecords: 4096}},
		{"v2/raw", trace.StreamOptions{NoCompress: true}},
	}
	for _, w := range gens {
		img, err := w.gen()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got[w.name+"/records"] = recordDigest(img)
		for _, e := range encodings {
			var buf bytes.Buffer
			if err := trace.EncodeV2(&buf, img, e.opt); err != nil {
				t.Fatalf("%s %s: %v", w.name, e.name, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got[w.name+"/"+e.name] = hex.EncodeToString(sum[:])
		}
	}

	for k, v := range got {
		if want, ok := generatorGolden[k]; !ok {
			t.Errorf("%s: no golden digest (got %s)", k, v)
		} else if v != want {
			t.Errorf("%s: digest %s, golden %s", k, v, want)
		}
	}
	for k := range generatorGolden {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: golden digest not computed", k)
		}
	}
}
