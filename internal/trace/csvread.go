package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// blockSize is the amount of input ReadCSV hands to one decoding goroutine.
// A block is cut at its last newline, so it holds whole rows; a row longer
// than a block makes its block longer.
const blockSize = 1 << 20

// ReadCSV decodes all records from a CSV stream produced by CSVWriter.
//
// The stream is read in blocks of whole lines, which are split on commas
// and decoded on runtime.GOMAXPROCS(0) goroutines and joined in file order;
// about GOMAXPROCS+1 blocks of input are held at a time. The first block
// holding a quote or a carriage return, and the rest of the stream after it,
// is read by encoding/csv instead, so quoted fields and CRLF line ends decode
// exactly as encoding/csv reads them. Either way the records returned, and
// the row and line an error names, are those of a row-by-row encoding/csv
// read of the whole stream: the earliest bad row wins.
func ReadCSV(r io.Reader) ([]Record, error) {
	return readCSV(&blockReader{r: r, size: blockSize})
}

// readCSV is ReadCSV over the blocks of br.
func readCSV(br *blockReader) ([]Record, error) {
	lines := 0 // lines before the current block
	for {
		block, err := br.next()
		if needsCSV(block, err) {
			return readCSVRows(br.rest(block), nil, lines, true)
		}
		rest, found, herr := cutHeader(block, &lines)
		if herr != nil {
			return nil, herr
		}
		if found {
			return decodeBlocks(br, rest, err, lines)
		}
		if err != nil {
			return nil, nil // no header row: an empty trace
		}
	}
}

// needsCSV reports whether a block must go to encoding/csv: it holds a
// quote or a carriage return, which only encoding/csv decodes, or the read
// ended in an error, whose row encoding/csv names.
func needsCSV(block string, err error) bool {
	return strings.IndexByte(block, '"') >= 0 || strings.IndexByte(block, '\r') >= 0 ||
		(err != nil && err != io.EOF)
}

// cutHeader checks the header row, the first non-blank line of block, and
// returns what follows it. found is false when block is blank. lines is
// advanced past the lines consumed.
func cutHeader(block string, lines *int) (rest string, found bool, err error) {
	for block != "" {
		line, tail := cutLine(block)
		block = tail
		*lines++
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != len(Header) {
			return "", false, fmt.Errorf("trace: read header: %w", fieldCountError(*lines))
		}
		if fields[0] != Header[0] {
			return "", false, fmt.Errorf("trace: missing header row (got %v)", fields)
		}
		return block, true, nil
	}
	return "", false, nil
}

// decodeBlocks decodes first and every later block of br on a bounded set of
// goroutines and joins their records in file order. end is the error, io.EOF
// included, that ended the stream after first; lines counts the lines before
// first.
func decodeBlocks(br *blockReader, first string, end error, lines int) ([]Record, error) {
	var (
		blocks  []*block
		work    = make(chan *block)
		stop    atomic.Bool // a block failed: read no further
		wg      sync.WaitGroup
		handoff io.Reader // the rest of the stream, when it needs encoding/csv
	)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := make(interner)
			for b := range work {
				b.decode(in, &stop)
			}
		}()
	}
	for data := first; ; {
		b := &block{data: data}
		blocks = append(blocks, b)
		if end != nil {
			// The last block: decode it here rather than wait idle.
			b.decode(make(interner), &stop)
			break
		}
		work <- b
		if stop.Load() {
			break
		}
		data, end = br.next()
		if needsCSV(data, end) {
			handoff = br.rest(data)
			break
		}
	}
	close(work)
	wg.Wait()

	n := 0
	for _, b := range blocks {
		if b.err != nil {
			return nil, b.error(n, lines)
		}
		n += len(b.recs)
		lines += b.lines
	}
	var out []Record
	switch {
	case len(blocks) == 1 && n > 0:
		out = blocks[0].recs
	case n > 0:
		out = make([]Record, 0, n)
		for _, b := range blocks {
			out = append(out, b.recs...)
		}
	}
	if handoff != nil {
		return readCSVRows(handoff, out, lines, false)
	}
	return out, nil
}

// block is one run of whole lines and, once decoded, its records or the
// first error in it.
type block struct {
	data  string
	recs  []Record
	lines int // lines in data

	// err is the first bad row's error: csv.ErrFieldCount or parseRecord's.
	// errRow counts the rows decoded before it and errLine is its line in
	// data, counting from 1.
	err     error
	errRow  int
	errLine int
}

// decode splits data into rows and decodes them, stopping at the first bad
// row, which it reports through stop.
func (b *block) decode(in interner, stop *atomic.Bool) {
	s := b.data
	b.data = ""
	b.recs = make([]Record, 0, strings.Count(s, "\n")+1)
	fields := make([]string, len(Header))
	var prev Record
	for s != "" {
		var line string
		line, s = cutLine(s)
		b.lines++
		if line == "" {
			continue // encoding/csv skips blank lines
		}
		var rec Record
		var err error
		if splitFields(line, fields) != len(Header) {
			err = csv.ErrFieldCount
		} else if rec, err = parseRecord(fields); err == nil {
			rec.DC = in.get(rec.DC, prev.DC)
			rec.Pool = in.get(rec.Pool, prev.Pool)
			rec.Server = in.get(rec.Server, prev.Server)
			rec.Generation = in.get(rec.Generation, prev.Generation)
		}
		if err != nil {
			b.err, b.errRow, b.errLine = err, len(b.recs), b.lines
			stop.Store(true)
			return
		}
		b.recs = append(b.recs, rec)
		prev = rec
	}
}

// error renders the block's bad row as a whole-stream read names it, given
// the rows after the header and the lines before the block.
func (b *block) error(rows, lines int) error {
	row := rows + b.errRow + 2 // row 1 is the header
	if b.err == csv.ErrFieldCount {
		return fmt.Errorf("trace: read row %d: %w", row, fieldCountError(lines+b.errLine))
	}
	return fmt.Errorf("trace: row %d: %w", row, b.err)
}

// fieldCountError is encoding/csv's error for a row on the given line
// without len(Header) fields.
func fieldCountError(line int) error {
	return &csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount}
}

// cutLine splits s after its first line, dropping the newline.
func cutLine(s string) (line, rest string) {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// splitFields cuts line at commas into fields and returns the number of
// fields line has, which may exceed len(fields).
func splitFields(line string, fields []string) int {
	n := 0
	for {
		i := strings.IndexByte(line, ',')
		field := line
		if i >= 0 {
			field = line[:i]
		}
		if n < len(fields) {
			fields[n] = field
		}
		n++
		if i < 0 {
			return n
		}
		line = line[i+1:]
	}
}

// interner shares one copy of each repeated name among a worker's records,
// so no record keeps a block of input alive.
type interner map[string]string

// get returns the shared copy of s; prev, already shared, is tried first,
// since consecutive rows mostly repeat a name.
func (in interner) get(s, prev string) string {
	if s == prev {
		return prev
	}
	if v, ok := in[s]; ok {
		return v
	}
	s = strings.Clone(s)
	in[s] = s
	return s
}

// readCSVRows decodes the rest of a stream with encoding/csv, appending to
// out. lines counts the lines before r and header reports that the header
// row is still to come, so errors name the rows and lines a read of the
// whole stream names.
func readCSVRows(r io.Reader, out []Record, lines int, header bool) ([]Record, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(Header)
	read := func() ([]string, error) {
		fields, err := cr.Read()
		if pe, ok := err.(*csv.ParseError); ok {
			pe.StartLine += lines
			pe.Line += lines
		}
		return fields, err
	}
	if header {
		first, err := read()
		if errors.Is(err, io.EOF) {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: read header: %w", err)
		}
		if first[0] != Header[0] {
			return nil, fmt.Errorf("trace: missing header row (got %v)", first)
		}
	}
	for {
		fields, err := read()
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

// blockReader cuts a stream into blocks of whole lines.
type blockReader struct {
	r    io.Reader
	size int    // bytes per block, blockSize outside tests
	buf  []byte // input read but not yet returned
	err  error  // the error that ended r, io.EOF included
}

// next returns the next block: about size bytes ending at a newline, or all
// that is left once r has ended, with the error that ended it.
func (br *blockReader) next() (string, error) {
	if br.buf == nil {
		br.buf = make([]byte, 0, br.size)
	}
	for {
		br.fill()
		if br.err != nil {
			block := string(br.buf)
			br.buf = br.buf[:0]
			return block, br.err
		}
		if i := bytes.LastIndexByte(br.buf, '\n'); i >= 0 {
			block := string(br.buf[:i+1])
			br.buf = br.buf[:copy(br.buf, br.buf[i+1:])]
			return block, nil
		}
		br.buf = slices.Grow(br.buf, cap(br.buf)) // one line fills the buffer
	}
}

// fill reads until the buffer is full or r ends. Like bufio, it gives up
// with io.ErrNoProgress after 100 empty reads in a row.
func (br *blockReader) fill() {
	for empty := 0; len(br.buf) < cap(br.buf) && br.err == nil; {
		n, err := br.r.Read(br.buf[len(br.buf):cap(br.buf)])
		br.buf = br.buf[:len(br.buf)+n]
		br.err = err
		if n > 0 {
			empty = 0
		} else if empty++; empty == 100 && err == nil {
			br.err = io.ErrNoProgress
		}
	}
}

// rest returns the stream from the start of block on.
func (br *blockReader) rest(block string) io.Reader {
	tail := br.r
	if br.err != nil {
		tail = errReader{br.err}
	}
	return io.MultiReader(strings.NewReader(block), bytes.NewReader(br.buf), tail)
}

// errReader replays the error that ended a stream.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
