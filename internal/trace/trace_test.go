package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func sampleRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Tick:       i,
			DC:         "DC 1",
			Pool:       "B",
			Server:     "b-0001",
			Generation: "gen1",
			Online:     rng.Intn(10) > 0,
			RPS:        rng.Float64() * 500,
			CPUPct:     rng.Float64() * 100,
			LatencyMs:  20 + rng.Float64()*40,
			NetBytes:   rng.Float64() * 2e7,
			NetPkts:    rng.Float64() * 2e4,
			MemPages:   rng.Float64() * 1.5e4,
			DiskQueue:  rng.Float64() * 4,
			DiskRead:   rng.Float64() * 4e7,
			Errors:     float64(rng.Intn(3)),
		}
	}
	return out
}

func TestCSVRoundTrip(t *testing.T) {
	recs := sampleRecords(50, 1)
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Error("CSV round trip mismatch")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := sampleRecords(50, 2)
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Error("JSONL round trip mismatch")
	}
}

func TestReadCSVEmpty(t *testing.T) {
	got, err := ReadCSV(strings.NewReader(""))
	if err != nil || got != nil {
		t.Errorf("empty stream: got %v, %v; want nil, nil", got, err)
	}
}

func TestReadCSVHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	if err := w.Write(Record{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Take just the header line.
	headerLine := strings.SplitN(buf.String(), "\n", 2)[0]
	got, err := ReadCSV(strings.NewReader(headerLine + "\n"))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("got %d records, want 0", len(got))
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"bad header", "not,a,header\n"},
		{"bad tick", strings.Join(Header, ",") + "\nX,DC 1,B,s,g,true,1,2,3,4,5,6,7,8,9\n"},
		{"bad online", strings.Join(Header, ",") + "\n1,DC 1,B,s,g,maybe,1,2,3,4,5,6,7,8,9\n"},
		{"bad float", strings.Join(Header, ",") + "\n1,DC 1,B,s,g,true,zz,2,3,4,5,6,7,8,9\n"},
		{"short row", strings.Join(Header, ",") + "\n1,DC 1,B\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.in)); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Error("bad JSON should error")
	}
	got, err := ReadJSONL(strings.NewReader(""))
	if err != nil || got != nil {
		t.Errorf("empty stream: got %v, %v", got, err)
	}
}

// Property: any record with finite fields survives a CSV round trip.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(tick uint16, online bool, rps, cpu, lat float64) bool {
		r := Record{
			Tick: int(tick), DC: "DC 2", Pool: "D", Server: "d-1",
			Generation: "gen2", Online: online,
			RPS: clampFinite(rps), CPUPct: clampFinite(cpu), LatencyMs: clampFinite(lat),
		}
		var buf bytes.Buffer
		w := NewCSVWriter(&buf)
		if err := w.Write(r); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0] == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clampFinite(v float64) float64 {
	if v != v || v > 1e300 || v < -1e300 {
		return 0
	}
	return v
}

// readCSVReference is the row-by-row encoding/csv decoder ReadCSV must agree
// with: same records, and on bad input the same error.
func readCSVReference(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(Header)
	first, err := cr.Read()
	if errors.Is(err, io.EOF) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if len(first) == 0 || first[0] != Header[0] {
		return nil, fmt.Errorf("trace: missing header row (got %v)", first)
	}
	var out []Record
	for {
		fields, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: read row %d: %w", len(out)+2, err)
		}
		rec, err := parseRecord(fields)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", len(out)+2, err)
		}
		out = append(out, rec)
	}
}

// sameRecords compares records field by field, floats by bit pattern so a
// NaN equals itself.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	bits := func(r Record) [9]uint64 {
		var out [9]uint64
		for i, v := range []float64{r.RPS, r.CPUPct, r.LatencyMs, r.NetBytes, r.NetPkts, r.MemPages, r.DiskQueue, r.DiskRead, r.Errors} {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Tick != y.Tick || x.DC != y.DC || x.Pool != y.Pool || x.Server != y.Server ||
			x.Generation != y.Generation || x.Online != y.Online || bits(x) != bits(y) {
			return false
		}
	}
	return true
}

// checkReference decodes data with ReadCSV, through wrap when it is not
// nil, and with readCSVReference, and fails unless both return the same
// records or the same error text (which names the same row and line).
func checkReference(t testing.TB, data []byte, wrap func(io.Reader) io.Reader) ([]Record, error) {
	t.Helper()
	var in io.Reader = bytes.NewReader(data)
	if wrap != nil {
		in = wrap(in)
	}
	return checkDecode(t, data, ReadCSV, in)
}

// checkDecode runs decode over in, a reader of data, and compares it with
// readCSVReference over data.
func checkDecode(t testing.TB, data []byte, decode func(io.Reader) ([]Record, error), in io.Reader) ([]Record, error) {
	t.Helper()
	got, gerr := decode(in)
	want, werr := readCSVReference(bytes.NewReader(data))
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("ReadCSV error = %v, reference error = %v", gerr, werr)
	case gerr != nil && gerr.Error() != werr.Error():
		t.Fatalf("ReadCSV error %q, reference error %q", gerr, werr)
	case !sameRecords(got, want):
		t.Fatalf("ReadCSV returned %d records, reference %d; they differ", len(got), len(want))
	}
	return got, gerr
}

// readCSVBlocks is ReadCSV with size-byte blocks, so a short input spans
// many blocks.
func readCSVBlocks(size int) func(io.Reader) ([]Record, error) {
	return func(r io.Reader) ([]Record, error) {
		return readCSV(&blockReader{r: r, size: size})
	}
}

// encodeCSV writes recs with CSVWriter.
func encodeCSV(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// twoDCTrace builds n records alternating between two datacenters, over 50
// servers per datacenter, as capsim lays a one-pool trace out.
func twoDCTrace(n int) []Record {
	recs := sampleRecords(n, 5)
	for i := range recs {
		dc := i / 50 % 2
		recs[i].Tick = i / 100
		recs[i].DC = fmt.Sprintf("DC %d", dc+1)
		recs[i].Server = fmt.Sprintf("b-%d-%04d", dc, i%50)
	}
	return recs
}

// multiBlock is a round-trip trace of about three blocks.
func multiBlock(t testing.TB) ([]Record, []byte) {
	recs := twoDCTrace(24000)
	data := encodeCSV(t, recs)
	if len(data) < 2*blockSize {
		t.Fatalf("trace is %d bytes, want more than two blocks", len(data))
	}
	return recs, data
}

// rowAt returns the byte offset where data row i (0 = first after the
// header) starts.
func rowAt(data []byte, i int) int {
	off := 0
	for n := 0; n <= i; n++ {
		off += bytes.IndexByte(data[off:], '\n') + 1
	}
	return off
}

func TestReadCSVMultiBlock(t *testing.T) {
	recs, data := multiBlock(t)
	late := rowAt(data, 20000) // inside the third block
	if late < 2*blockSize {
		t.Fatalf("row 20000 starts at %d, want after block 2", late)
	}
	quoted := append([]Record(nil), recs...)
	quoted[20000].DC = "DC, 1"
	quoted[20001].Server = `x"y`

	tests := []struct {
		name string
		data []byte
		wrap func(io.Reader) io.Reader
		want []Record
	}{
		{"round trip", data, nil, recs},
		{"one byte reads", data, iotest.OneByteReader, recs},
		{"no trailing newline", bytes.TrimSuffix(data, []byte("\n")), nil, recs},
		{"quoted rows after block 1", encodeCSV(t, quoted), nil, quoted},
		{"CRLF after block 1", append(data[:late:late], bytes.ReplaceAll(data[late:], []byte("\n"), []byte("\r\n"))...), nil, recs},
		{"blank lines", bytes.ReplaceAll(data, []byte("\n"), []byte("\n\n")), nil, recs},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := checkReference(t, tt.data, tt.wrap)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Error("records differ from the ones written")
			}
		})
	}
}

func TestReadCSVRowStraddlesBlocks(t *testing.T) {
	recs, data := multiBlock(t)
	if data[blockSize-1] == '\n' {
		t.Fatal("a row ends exactly at the block boundary; shift the trace")
	}
	got, err := checkReference(t, data, nil)
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("straddling trace: err %v, records equal %v", err, reflect.DeepEqual(got, recs))
	}
}

func TestReadCSVRowLongerThanBlock(t *testing.T) {
	recs := twoDCTrace(3000)
	recs[1500].Server = strings.Repeat("s", 3*blockSize)
	got, err := checkReference(t, encodeCSV(t, recs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Error("records differ from the ones written")
	}
}

// A bad row in each of two blocks: the earlier one is reported, every time,
// under the row and line number the reference names.
func TestReadCSVEarliestErrorWins(t *testing.T) {
	_, data := multiBlock(t)
	early, late := rowAt(data, 3000), rowAt(data, 20000)
	if early >= blockSize || late < 2*blockSize {
		t.Fatalf("bad rows at %d and %d do not sit in blocks 1 and 3", early, late)
	}
	shortRow := func(b []byte, off int) { copy(b[off:], "1,DC 1,B\n") } // the rest of the row stays a row
	badFloat := func(b []byte, off int) {
		i := off + bytes.LastIndexByte(b[off:off+bytes.IndexByte(b[off:], '\n')], ',') + 1
		b[i] = 'z'
	}
	for _, tt := range []struct {
		name               string
		earlyBad, lateBad  func([]byte, int)
		wantRow, wantError string
	}{
		{"bad float then short row", badFloat, shortRow, "row 3002", "bad errors"},
		{"short row then bad float", shortRow, badFloat, "row 3002", "wrong number of fields"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			b := bytes.Clone(data)
			tt.earlyBad(b, early)
			tt.lateBad(b, late)
			for range 5 {
				_, err := checkReference(t, b, nil)
				if err == nil || !strings.Contains(err.Error(), tt.wantRow+":") || !strings.Contains(err.Error(), tt.wantError) {
					t.Fatalf("err = %v, want %s: ...%s", err, tt.wantRow, tt.wantError)
				}
			}
		})
	}
}

func TestReadCSVReadError(t *testing.T) {
	_, data := multiBlock(t)
	boom := errors.New("boom")
	cut := data[:rowAt(data, 15000)+40] // mid-row in block 3
	in := io.MultiReader(bytes.NewReader(cut), iotest.ErrReader(boom))
	_, err := ReadCSV(in)
	_, want := readCSVReference(io.MultiReader(bytes.NewReader(cut), iotest.ErrReader(boom)))
	if !errors.Is(err, boom) || want == nil || err.Error() != want.Error() {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// FuzzReadCSV checks ReadCSV against the row-by-row encoding/csv reference.
func FuzzReadCSV(f *testing.F) {
	head := strings.Join(Header, ",") + "\n"
	row := "1,DC 1,B,s,g,true,1,2,3,4,5,6,7,8,9\n"
	f.Add(encodeCSV(f, sampleRecords(20, 3)))
	f.Add(encodeCSV(f, []Record{{DC: "DC, 1", Server: `x"y`}, {DC: "DC 2"}}))
	for _, s := range []string{
		"",
		"\n\n",
		head,
		head + row + row,
		head + row[:len(row)-1],
		strings.ReplaceAll(head+row+row, "\n", "\r\n"),
		"\n" + head + "\n\n" + row + "\n",
		head + "1,DC 1,B\n" + row,
		head + row + "1,DC 1,B,s,g,true,1,2,3,4,5,6,7,8,9,10\n",
		head + "1,DC 1,B,s,g,true,zz,2,3,4,5,6,7,8,9\n",
		head + "x,DC 1,B,s,g,true,1,2,3,4,5,6,7,8,9\n",
		head + "1,DC 1,B,s,g,maybe,1,2,3,4,5,6,7,8,9\n",
		head + "1,DC 1,B,s,g,true,NaN,+Inf,-Inf,inf,1e400,0x1p-2,1_0,.5,-0\n",
		head + `1,"DC 1",B,s,g,true,1,2,3,4,5,6,7,8,9` + "\n",
		head + `1,DC "1",B,s,g,true,1,2,3,4,5,6,7,8,9` + "\n",
		head + "1,\"DC\n1\",B,s,g,true,1,2,3,4,5,6,7,8,9\n",
		"not,a,header\n" + row,
		"tock" + head[4:] + row,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReference(t, data, nil)
		// Blocks of a few rows, or shorter than a row, put block
		// boundaries, hand-offs and bad rows in every position.
		for _, size := range []int{7, 100} {
			checkDecode(t, data, readCSVBlocks(size), bytes.NewReader(data))
		}
	})
}

// BenchmarkReadCSV decodes a 36K-record, two-datacenter trace (~5.5 MB).
func BenchmarkReadCSV(b *testing.B) {
	data := encodeCSV(b, twoDCTrace(36000))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		recs, err := ReadCSV(bytes.NewReader(data))
		if err != nil || len(recs) != 36000 {
			b.Fatalf("ReadCSV: %d records, %v", len(recs), err)
		}
	}
}
