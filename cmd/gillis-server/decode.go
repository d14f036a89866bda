package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
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

// decodePredictRequest parses a /v1/predict body, decoding the input array
// into input's array where that is big enough. It accepts and
// rejects exactly what encoding/json's Decoder.Decode into a predictRequest
// does — first JSON value only, case-folded keys, the last duplicate wins,
// null empties an array and leaves the model alone, a null element is zero,
// unknown keys are skipped — and yields the same values: encoding/json
// validates a body once to find the value's end and again while decoding,
// which is most of what a small request costs. Every float is the float32
// strconv.ParseFloat(tok, 32) returns, as there, so replies stay bit-equal
// (decoder.floats and exactFloat32 say how). On top of that it refuses shapes
// over maxRank and arrays over maxElements as it reads them.
func decodePredictRequest(data []byte, input []float32) (predictRequest, error) {
	req := predictRequest{Input: input[:0]}
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
			if req.Input = req.Input[:0]; !null {
				req.Input, err = d.floats(req.Input)
			}
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
	if empty, err := d.open(); empty || err != nil {
		return err
	}
	return d.elements(1, limit, elem)
}

// open consumes an array's '[', and its ']' too if it is empty.
func (d *decoder) open() (empty bool, err error) {
	if d.peek() != '[' {
		return false, d.errorf("want an array")
	}
	d.i++
	d.space()
	if d.peek() == ']' {
		d.i++
		return true, nil
	}
	return false, nil
}

// elements scans the rest of an open array from its nth element, calling
// elem as array does.
func (d *decoder) elements(n, limit int, elem func() error) error {
	for ; ; n++ {
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
// checks JSON's grammar and collects the decimal mantissa w and exponent e,
// which exactFloat32 converts where it can; everything that is not a number
// goes to the token path, and the rest to strconv.
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
	if f, ok := exactFloat32(neg, w, digits, e); ok {
		return f, nil
	}
	f, err := strconv.ParseFloat(string(s[:n]), 32)
	return float32(f), err
}

// exactFloat32 returns the float32 nearest ±w × 10^e, where w has at most
// digits decimal digits, and false where it cannot vouch for it. Where w has
// at most 15 digits and |e| <= 22, both w and 10^|e| are exact float64s, so
// w*10^e or w/10^|e| is the correctly rounded float64 of the value (one IEEE
// operation on exact operands), zero or between 1e-22 and 1e37 and so well
// inside float32's normal range. Rounding that to float32 is the correctly
// rounded float32 of the value unless the float64 sits exactly on the
// midpoint of two float32s (its low 29 mantissa bits are 1<<28): the value
// and the float64 lie on the same side of every other point where float32
// rounding changes direction, because those points are float64s and rounding
// to float64 is monotonic. A midpoint, more digits and a larger exponent are
// left to strconv.
func exactFloat32(neg bool, w uint64, digits, e int) (float32, bool) {
	if digits > 15 || e < -22 || e > 22 {
		return 0, false
	}
	f := float64(int64(w)) // below 10^15
	if e < 0 {
		f /= pow10[-e]
	} else {
		f *= pow10[e]
	}
	if math.Float64bits(f)&(1<<29-1) == 1<<28 {
		return 0, false
	}
	var sign uint64 // set without a branch: a body's signs are random
	if neg {
		sign = 1 << 63
	}
	return float32(math.Float64frombits(math.Float64bits(f) | sign)), true
}

// window is the stretch of body floats marks at a time: its bitmap is 512
// bytes on the stack, whatever the size of the body.
const window = 4096

// floats decodes the number array at the cursor, appending to the empty buf,
// in two stages over windows of the body. Stage 1 (markDelimiters) marks
// every ',' and ']' of a window, eight bytes at a time. Stage 2 walks the
// marks, so each token's extent is known before it is read, and converts
// plain tokens with plainFloat. The first token plainFloat turns down (an
// exponent, whitespace, a null, more digits, a half-way value, anything
// malformed) and every token after it are read by elements and float32, so
// what is accepted and every bit are theirs.
func (d *decoder) floats(buf []float32) ([]float32, error) {
	if empty, err := d.open(); empty || err != nil {
		return buf, err
	}
	var marks [window / 8]byte
	data, i := d.data, d.i // i: where the next token starts
stages:
	for start := i; start < len(data); start += window {
		win := data[start:min(start+window, len(data))]
		markDelimiters(&marks, win)
		for k := 0; 64*k < len(win); k++ {
			for m := binary.LittleEndian.Uint64(marks[8*k:]); m != 0; m &= m - 1 {
				end := start + 64*k + bits.TrailingZeros64(m)
				f, ok := plainFloat(data, i, end)
				if !ok {
					break stages
				}
				buf = append(buf, f)
				i = end + 1
				if data[end] == ']' {
					d.i = i
					return buf, nil
				}
				if len(buf) == maxElements {
					d.i = i
					return buf, d.errorf("array has more than %d elements", maxElements)
				}
			}
		}
	}
	d.i = i
	err := d.elements(len(buf)+1, maxElements, func() error {
		f, err := d.float32()
		buf = append(buf, f)
		return err
	})
	return buf, err
}

// markDelimiters sets bit j of marks[w] where win[8w+j] is ',' or ']', for
// the words of win (at most window bytes) and the rest of its last 64 bytes.
func markDelimiters(marks *[window / 8]byte, win []byte) {
	w := 0
	for ; len(win) >= 8; w++ {
		marks[w] = delimiters(binary.LittleEndian.Uint64(win))
		win = win[8:]
	}
	if len(win) > 0 {
		var last [8]byte
		copy(last[:], win)
		marks[w] = delimiters(binary.LittleEndian.Uint64(last[:]))
		w++
	}
	for ; w%8 != 0; w++ {
		marks[w] = 0
	}
}

// delimiters returns a byte whose bit j is set where byte j of the
// little-endian word v is ',' or ']'.
func delimiters(v uint64) byte {
	hits := zeroBytes(v^','*ones) | zeroBytes(v^']'*ones)
	// The multiply gathers the eight top bits into the top byte, in order:
	// its partial products never meet, so nothing carries.
	return byte(hits * 0x0002040810204081 >> 56)
}

const (
	ones = 0x0101010101010101
	low7 = 0x7f7f7f7f7f7f7f7f
)

// zeroBytes returns x with the top bit of each byte set where that byte of x
// is zero, and every other bit clear. Adding low7 to a byte's low seven bits
// sets its top bit unless they are all zero, and never carries into the next
// byte.
func zeroBytes(x uint64) uint64 {
	return ^(x | (x&low7 + low7)) &^ low7
}

// plainFloat converts the token data[i:end] if it is -?(0|[1-9]D*)(\.D+)?
// with at most 15 digits and exactFloat32 vouches for its float32, and
// reports whether it did. The sign, the place of the point and the token's
// length take no branch of their own: in the sixteen bytes that end where
// the token does, it closes the gap the point leaves, fills the bytes below
// the digits with '0's and converts the two words of eight digits that
// makes.
func plainFloat(data []byte, i, end int) (float32, bool) {
	if end < 16 {
		return paddedFloat(data[i:end])
	}
	sign := 0
	if data[i] == '-' {
		sign = 1
	}
	n := end - i - sign // digits and point
	if n < 1 || n > 16 {
		return 0, false
	}
	t := (*[16]byte)(data[end-16 : end])
	lo, hi := binary.LittleEndian.Uint64(t[:8]), binary.LittleEndian.Uint64(t[8:])
	// frac counts the bytes after the last point of the sixteen, 16 if none:
	// lo's count is added only where hi has no point (hz == 64).
	hz, lz := bits.LeadingZeros64(zeroBytes(hi^'.'*ones)), bits.LeadingZeros64(zeroBytes(lo^'.'*ones))
	frac := (hz + lz&-(hz>>6)) / 8
	digits, keep := n, 16 // with no point in the token, every byte keeps its place
	if frac < n {
		digits, keep = n-1, frac
	} else {
		frac = 0
	}
	if ints := digits - frac; ints < 1 || keep == 0 || digits > 15 || ints > 1 && t[16-n] == '0' {
		return 0, false
	}
	// The bytes below the point move up one, over it.
	m := &topBytes[keep]
	lo, hi = lo&m[0]|lo<<8&^m[0], hi&m[1]|(hi<<8|lo>>56)&^m[1]
	m = &topBytes[digits]
	top, topOK := eightDigits(lo&m[0] | '0'*ones&^m[0])
	bottom, bottomOK := eightDigits(hi&m[1] | '0'*ones&^m[1])
	if !topOK || !bottomOK {
		return 0, false
	}
	return exactFloat32(sign == 1, top*1e8+bottom, digits, -frac)
}

// paddedFloat is plainFloat on a token that ends less than sixteen bytes
// into the body: on a copy that ends sixteen bytes in (and, like any token,
// has a byte after it).
func paddedFloat(tok []byte) (float32, bool) {
	var pad [17]byte
	copy(pad[16-len(tok):16], tok)
	return plainFloat(pad[:], 16-len(tok), 16)
}

// topBytes[k] masks the top k bytes of a little-endian 128-bit word as its
// low and high halves.
var topBytes = func() (t [17][2]uint64) {
	for k := range t {
		for b := 16 - k; b < 16; b++ {
			t[k][b/8] |= 0xff << (8 * (b % 8))
		}
	}
	return t
}()

// eightDigits returns the value of the eight bytes of the little-endian word
// v, the first the most significant, and whether they are all decimal digits.
func eightDigits(v uint64) (uint64, bool) {
	// A byte is a digit when its high nibble is 3 and stays 3 with 6 added.
	// A byte that carries out when 6 is added has a high nibble of 15.
	const high = 0xf0f0f0f0f0f0f0f0
	ok := v&high|(v+6*ones)&high>>4 == 0x33*ones
	// Pairs of digits, then fours, then all eight, with one multiply each.
	v = (v & 0x0f0f0f0f0f0f0f0f) * (1 + 10<<8) >> 8
	v = (v & 0x00ff00ff00ff00ff) * (1 + 100<<16) >> 16
	return (v & 0x0000ffff0000ffff) * (1 + 10000<<32) >> 32, ok
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

var zero = []byte("0")

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
