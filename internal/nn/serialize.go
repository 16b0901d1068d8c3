package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Weight-file format:
//
//	magic "VNN1" | count u32
//	per param: name (u16 len + bytes) | rows u32 | cols u32 | data f32...
//
// Weights are matched by name on load, so a model rebuilt with the same
// configuration and vocabulary can be restored exactly (the profile-driven
// deployment path of §5.5: train offline, ship the weights). A file must
// name every parameter exactly once: a subset or a duplicate is rejected.

const weightsMagic = "VNN1"

// WriteTo serializes every parameter's weights (not optimizer state) and
// returns the number of bytes written.
func (s *ParamSet) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	write := func(data any) error { return binary.Write(bw, binary.LittleEndian, data) }
	if _, err := bw.WriteString(weightsMagic); err != nil {
		return cw.n, err
	}
	if err := write(uint32(len(s.list))); err != nil {
		return cw.n, err
	}
	for _, p := range s.list {
		if len(p.Name) > 1<<16-1 {
			return cw.n, fmt.Errorf("nn: parameter name too long: %q", p.Name)
		}
		if err := write(uint16(len(p.Name))); err != nil {
			return cw.n, err
		}
		if _, err := bw.WriteString(p.Name); err != nil {
			return cw.n, err
		}
		if err := write([2]uint32{uint32(p.W.Rows), uint32(p.W.Cols)}); err != nil {
			return cw.n, err
		}
		if err := write(p.W.Data); err != nil {
			return cw.n, err
		}
	}
	err := bw.Flush()
	return cw.n, err
}

// ReadFrom restores weights into the set's parameters, matching by name, and
// returns the number of bytes the weights file occupies. The file must name
// every parameter of the set exactly once, each with the set's shape; on
// error the set's weights are unspecified and must not be used.
func (s *ParamSet) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: bufio.NewReader(r)}
	read := func(data any) error { return binary.Read(cr, binary.LittleEndian, data) }
	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return cr.n, fmt.Errorf("nn: reading magic: %w", err)
	}
	if string(magic) != weightsMagic {
		return cr.n, fmt.Errorf("nn: bad weights magic %q", magic)
	}
	var count uint32
	if err := read(&count); err != nil {
		return cr.n, err
	}
	seen := make(map[string]bool, len(s.list))
	for i := uint32(0); i < count; i++ {
		var nameLen uint16
		if err := read(&nameLen); err != nil {
			return cr.n, err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(cr, name); err != nil {
			return cr.n, err
		}
		var shape [2]uint32
		if err := read(&shape); err != nil {
			return cr.n, err
		}
		p := s.ByName(string(name))
		if p == nil {
			return cr.n, fmt.Errorf("nn: unknown parameter %q in weights file", name)
		}
		if seen[p.Name] {
			return cr.n, fmt.Errorf("nn: parameter %q appears twice in weights file", name)
		}
		seen[p.Name] = true
		if p.W.Rows != int(shape[0]) || p.W.Cols != int(shape[1]) {
			return cr.n, fmt.Errorf("nn: parameter %q shape %dx%d != file %dx%d",
				name, p.W.Rows, p.W.Cols, shape[0], shape[1])
		}
		if err := read(p.W.Data); err != nil {
			return cr.n, fmt.Errorf("nn: parameter %q data: %w", name, err)
		}
	}
	for _, p := range s.list {
		if !seen[p.Name] {
			return cr.n, fmt.Errorf("nn: parameter %q missing from weights file", p.Name)
		}
	}
	return cr.n, nil
}

// countingWriter and countingReader tally the bytes that pass through them,
// so WriteTo and ReadFrom can report true byte counts.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	k, err := c.w.Write(p)
	c.n += int64(k)
	return k, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += int64(k)
	return k, err
}
