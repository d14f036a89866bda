package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Limits on a /v1/predict body. They bound what one request can make the
// server allocate before any model sees it.
const (
	maxBodyBytes = 64 << 20 // JSON text
	maxRank      = 8        // len(shape)
	maxElements  = 4 << 20  // len(input)
)

// decodePredictRequest parses a /v1/predict body in one pass. It accepts and
// rejects exactly what encoding/json's Decoder.Decode into a predictRequest
// does — first JSON value only, case-folded keys, the last duplicate wins,
// null empties an array and leaves the model alone, a null element is zero,
// unknown keys are skipped — and yields the same values, but scans the number
// arrays token by token: encoding/json validates a body once to find the
// value's end and again while decoding, which is most of what a small request
// costs. Every float is the float32 strconv.ParseFloat(tok, 32) returns, as
// there, so replies stay bit-equal (decoder.float32 says how it gets there in
// one pass over the token). On top of that it refuses shapes over maxRank and
// arrays over maxElements as it reads them.
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
			err = d.array(maxRank, func() error {
				tok, err := d.numberToken()
				if err != nil {
					return err
				}
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
			err = d.array(maxElements, func() error {
				f, err := d.float32()
				req.Input = append(req.Input, f)
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

// array scans an array, calling elem with the cursor on each element; elem
// consumes it. More than limit elements is an error.
func (d *decoder) array(limit int, elem func() error) error {
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
		if err := elem(); err != nil {
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

// numberToken consumes the number at the cursor and returns its text; a null
// is the number 0.
func (d *decoder) numberToken() ([]byte, error) {
	tok := d.token()
	d.i += len(tok)
	if string(tok) == "null" {
		return zero, nil
	}
	if n, _, _, _, _ := scanNumber(tok); n == 0 || n != len(tok) {
		return nil, fmt.Errorf("want a number, got %q", tok)
	}
	return tok, nil
}

// float32 consumes the number (or null) at the cursor and returns what
// strconv.ParseFloat(text, 32) does, bit for bit. One pass over the token
// checks JSON's grammar and collects the decimal mantissa w and exponent e;
// where w has at most 15 significant digits and |e| <= 22, both w and 10^|e|
// are exact float64s, so w*10^e or w/10^|e| is the correctly rounded float64
// of the value (one IEEE operation on exact operands), between 1e-22 and 1e37
// and so well inside float32's normal range. Rounding that to float32 is the
// correctly rounded float32 of the value unless the float64 sits exactly on
// the midpoint of two float32s (its low 29 mantissa bits are 1<<28): the value
// and the float64 lie on the same side of every other point where float32
// rounding changes direction, because those points are float64s and rounding
// to float64 is monotonic. A midpoint, more digits, a larger exponent, and
// everything that is not a number go to the token path and strconv.
func (d *decoder) float32() (float32, error) {
	s := d.data[d.i:]
	n, neg, w, digits, e := scanNumber(s)
	if n == 0 || (n < len(s) && !delimiter[s[n]]) {
		tok, err := d.numberToken() // a null, or the error
		if err != nil {
			return 0, err
		}
		f, err := strconv.ParseFloat(string(tok), 32)
		return float32(f), err
	}
	d.i += n
	if digits == 0 {
		if neg {
			return float32(math.Copysign(0, -1)), nil
		}
		return 0, nil
	}
	if digits <= 15 && -22 <= e && e <= 22 {
		f := float64(w)
		if e < 0 {
			f /= pow10[-e]
		} else {
			f *= pow10[e]
		}
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			if neg {
				f = -f
			}
			return float32(f), nil
		}
	}
	f, err := strconv.ParseFloat(string(s[:n]), 32)
	return float32(f), err
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [23]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// scanNumber scans the JSON number s starts with — the grammar is narrower
// than what strconv parses: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? —
// and returns its length n —
// 0 if s starts with none — and its value as ±w × 10^e, with the count of
// w's significant digits (0 for a zero). w has wrapped around when there are
// more than 19, and e stops growing past four digits of exponent: either way
// the caller has a number it leaves to strconv.
func scanNumber(s []byte) (n int, neg bool, w uint64, digits, e int) {
	i := 0
	digit := func() bool { return i < len(s) && '0' <= s[i] && s[i] <= '9' }
	mantissa := func() {
		if c := s[i] - '0'; c != 0 || digits > 0 {
			digits++
			w = w*10 + uint64(c)
		}
	}
	if i < len(s) && s[i] == '-' {
		neg = true
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case digit():
		for ; digit(); i++ {
			mantissa()
		}
	default:
		return 0, false, 0, 0, 0
	}
	if i < len(s) && s[i] == '.' {
		if i++; !digit() {
			return 0, false, 0, 0, 0
		}
		for ; digit(); i++ {
			mantissa()
			e--
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		sign := 1
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			if s[i] == '-' {
				sign = -1
			}
			i++
		}
		if !digit() {
			return 0, false, 0, 0, 0
		}
		exp := 0
		for ; digit(); i++ {
			if exp < 10000 {
				exp = exp*10 + int(s[i]-'0')
			}
		}
		e += sign * exp
	}
	return i, neg, w, digits, e
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
