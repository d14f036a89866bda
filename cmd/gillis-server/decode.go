package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Limits on a /v1/predict body. They bound what one request can make the
// server allocate before any model sees it.
const (
	maxBodyBytes = 64 << 20 // JSON text
	maxRank      = 8        // len(shape)
	maxElements  = 4 << 20  // len(input), and the product of shape
)

// decodePredictRequest parses a /v1/predict body in one pass. It accepts and
// rejects exactly what encoding/json's Decoder.Decode into a predictRequest
// does — first JSON value only, case-folded keys, the last duplicate wins,
// null empties an array and leaves the model alone, a null element is zero,
// unknown keys are skipped — and yields the same values, but scans the number arrays token by
// token: encoding/json validates a body once to find the value's end and
// again while decoding, which is most of what a small request costs. Every
// float goes through strconv.ParseFloat(tok, 32), as there, so replies stay
// bit-equal. On top of that it refuses shapes over maxRank and arrays over
// maxElements as it reads them.
func decodePredictRequest(data []byte) (predictRequest, error) {
	var req predictRequest
	d := decoder{data: data}
	d.space()
	if d.peek() != '{' {
		// null, a non-object, or nothing at all: rare enough to hand over.
		err := json.NewDecoder(bytes.NewReader(data)).Decode(&req)
		return req, err
	}
	d.i++
	if d.space(); d.peek() == '}' {
		return req, nil
	}
	for {
		d.space()
		var key string
		if err := d.str(&key); err != nil {
			return req, err
		}
		d.space()
		if d.peek() != ':' {
			return req, d.errorf("want ':' after object key")
		}
		d.i++
		d.space()
		var err error
		null := d.null()
		switch {
		case strings.EqualFold(key, "model"):
			if !null {
				err = d.str(&req.Model)
			}
		case strings.EqualFold(key, "shape"):
			if req.Shape = req.Shape[:0]; null {
				break
			}
			err = d.array(maxRank, func(tok []byte) error {
				n, err := strconv.ParseInt(string(tok), 10, 64)
				req.Shape = append(req.Shape, int(n))
				return err
			})
		case strings.EqualFold(key, "input"):
			if req.Input = req.Input[:0]; null {
				break
			}
			if cap(req.Input) == 0 {
				// Nearly all of a body is this array, so the commas left in it
				// say how long the array can be: one allocation, not the
				// twenty-odd an append from nothing grows through.
				req.Input = make([]float32, 0, min(bytes.Count(d.data[d.i:], comma)+1, maxElements))
			}
			err = d.array(maxElements, func(tok []byte) error {
				f, err := strconv.ParseFloat(string(tok), 32)
				req.Input = append(req.Input, float32(f))
				return err
			})
		case !null:
			err = d.skip()
		}
		if err != nil {
			return req, err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			return req, nil
		default:
			return req, d.errorf("want ',' or '}' after object value")
		}
	}
}

// decoder is a cursor over one request body.
type decoder struct {
	data []byte
	i    int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// peek returns the byte at the cursor, or 0 at the end of the body (never a
// byte JSON allows outside a string).
func (d *decoder) peek() byte {
	if d.i < len(d.data) {
		return d.data[d.i]
	}
	return 0
}

func (d *decoder) space() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// null consumes a null literal if one is at the cursor.
func (d *decoder) null() bool {
	if tok := d.token(); string(tok) == "null" {
		d.i += len(tok)
		return true
	}
	return false
}

// delimiter marks the bytes that end a literal or a number.
var delimiter = func() (t [256]bool) {
	for _, c := range []byte(",:[]{}\" \t\r\n") {
		t[c] = true
	}
	return t
}()

// token returns the run of literal or number bytes at the cursor without
// consuming it: everything up to the next delimiter.
func (d *decoder) token() []byte {
	j := d.i
	for j < len(d.data) && !delimiter[d.data[j]] {
		j++
	}
	return d.data[d.i:j]
}

// str decodes the string at the cursor into *s. encoding/json does the
// unquoting, so escapes and invalid UTF-8 come out as they do there.
func (d *decoder) str(s *string) error {
	if d.peek() != '"' {
		return d.errorf("want a string")
	}
	for j := d.i + 1; j < len(d.data); j++ {
		switch d.data[j] {
		case '\\':
			j++
		case '"':
			err := json.Unmarshal(d.data[d.i:j+1], s)
			d.i = j + 1
			return err
		}
	}
	return d.errorf("unterminated string")
}

// array scans an array of numbers, handing each number's text to elem; a
// null element is the number 0. More than limit elements is an error.
func (d *decoder) array(limit int, elem func(tok []byte) error) error {
	if d.peek() != '[' {
		return d.errorf("want an array")
	}
	d.i++
	d.space()
	if d.peek() == ']' {
		d.i++
		return nil
	}
	for n := 1; ; n++ {
		if n > limit {
			return d.errorf("array has more than %d elements", limit)
		}
		d.space()
		tok := d.token()
		d.i += len(tok)
		switch {
		case string(tok) == "null":
			tok = zero
		case !validNumber(tok):
			return d.errorf("want a number, got %q", tok)
		}
		if err := elem(tok); err != nil {
			return d.errorf("%v", err)
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			return nil
		default:
			return d.errorf("want ',' or ']' after array element")
		}
	}
}

var (
	zero  = []byte("0")
	comma = []byte(",")
)

// skip consumes the value of a key the request does not have. Any JSON may
// stand there, so encoding/json validates it and says where it ends.
func (d *decoder) skip() error {
	dec := json.NewDecoder(bytes.NewReader(d.data[d.i:]))
	var v json.RawMessage
	if err := dec.Decode(&v); err != nil {
		return err
	}
	d.i += int(dec.InputOffset())
	return nil
}

// validNumber reports whether s is a number in JSON's grammar, which is
// narrower than what strconv parses: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(s []byte) bool {
	digits := func() bool {
		n := 0
		for len(s) > 0 && '0' <= s[0] && s[0] <= '9' {
			s, n = s[1:], n+1
		}
		return n > 0
	}
	if len(s) > 0 && s[0] == '-' {
		s = s[1:]
	}
	if len(s) > 0 && s[0] == '0' {
		s = s[1:]
	} else if !digits() {
		return false
	}
	if len(s) > 0 && s[0] == '.' {
		if s = s[1:]; !digits() {
			return false
		}
	}
	if len(s) > 0 && (s[0] == 'e' || s[0] == 'E') {
		s = s[1:]
		if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
			s = s[1:]
		}
		if !digits() {
			return false
		}
	}
	return len(s) == 0
}
