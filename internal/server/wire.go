package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
)

// The /estimate wire codec. Requests are scanned and responses appended
// without reflection; encoding/json stays the reference both are
// fuzzed against (FuzzEstimateRequestMatchesJSON,
// FuzzEstimateResponseMatchesJSON) and the only path for input the
// scanner does not accept.

// errTrailingData rejects a body with more than whitespace after its
// JSON object.
var errTrailingData = errors.New("unexpected data after the JSON object")

// decodeJSON strictly decodes one JSON object from r: unknown fields
// are rejected, and so is anything but whitespace after the object.
// It serves /append's JSON form and /compact, and is the reference
// for the /estimate scanner.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errTrailingData
		}
		return err
	}
	return nil
}

// decodeEstimateRequest decodes an /estimate body into req. The shapes
// clients send take the scanner, which reuses req's pattern slice; any
// other body goes to decodeJSON, which decides whether it is valid and
// words the error when it is not.
func decodeEstimateRequest(body []byte, req *EstimateRequest) error {
	if scanEstimateRequest(body, req) {
		return nil
	}
	// A fresh request: decoding into the reused slice would let a null
	// element keep the string an earlier request left in that slot.
	*req = EstimateRequest{}
	return decodeJSON(bytes.NewReader(body), req)
}

// scanEstimateRequest decodes one JSON object whose keys are
// "pattern" (a string) and "patterns" (an array of strings), each at
// most once, whose strings are printable ASCII without escapes, and
// which is surrounded by nothing but JSON whitespace. It reports false
// for every other body, leaving req partly written. Escapes, null,
// duplicate keys and case-folded keys such as "PATTERN" are left to
// encoding/json, so their semantics are never re-implemented here.
func scanEstimateRequest(b []byte, req *EstimateRequest) bool {
	req.Pattern, req.Patterns = "", req.Patterns[:0]
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	var sawPattern, sawPatterns bool
	for {
		key, j, ok := scanString(b, i)
		if !ok {
			return false
		}
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		switch string(key) {
		case "pattern":
			if sawPattern {
				return false
			}
			sawPattern = true
			s, j, ok := scanString(b, i)
			if !ok {
				return false
			}
			req.Pattern, i = string(s), j
		case "patterns":
			if sawPatterns {
				return false
			}
			sawPatterns = true
			if i, ok = scanStrings(b, i, req); !ok {
				return false
			}
		default:
			return false
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return false
		}
		switch b[i] {
		case '}':
			return skipSpace(b, i+1) == len(b)
		case ',':
			i = skipSpace(b, i+1)
		default:
			return false
		}
	}
}

// scanStrings scans a JSON array of scanString strings starting at
// b[i], appending them to req.Patterns, and returns the index after
// the closing bracket.
func scanStrings(b []byte, i int, req *EstimateRequest) (int, bool) {
	if i == len(b) || b[i] != '[' {
		return 0, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1, true
	}
	for {
		s, j, ok := scanString(b, i)
		if !ok {
			return 0, false
		}
		req.Patterns = append(req.Patterns, string(s))
		i = skipSpace(b, j)
		if i == len(b) {
			return 0, false
		}
		switch b[i] {
		case ']':
			return i + 1, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return 0, false
		}
	}
}

// scanString returns the contents of the JSON string starting at b[i]
// and the index after its closing quote, provided every byte inside is
// printable ASCII other than a backslash.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// skipSpace returns the index of the first non-whitespace byte at or
// after b[i], or len(b).
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// appendEstimateResponse appends exactly the bytes
// json.NewEncoder(w).Encode(resp) writes, trailing newline included,
// and fails where Encode fails (a NaN or infinite estimate). A
// single-pattern echo of the first result's estimate is formatted once
// and copied.
func appendEstimateResponse(dst []byte, resp *EstimateResponse) ([]byte, error) {
	var err error
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendUint(dst, resp.Version, 10)
	echoFrom, echoTo := 0, 0
	if resp.Estimate != nil {
		dst = append(dst, `,"estimate":`...)
		echoFrom = len(dst)
		if dst, err = appendJSONFloat(dst, *resp.Estimate); err != nil {
			return dst, err
		}
		echoTo = len(dst)
	}
	dst = append(dst, `,"results":`...)
	if resp.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range resp.Results {
			res := &resp.Results[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"pattern":`...)
			dst = appendJSONString(dst, res.Pattern)
			dst = append(dst, `,"estimate":`...)
			if i == 0 && echoTo > 0 && math.Float64bits(res.Estimate) == math.Float64bits(*resp.Estimate) {
				dst = append(dst, dst[echoFrom:echoTo]...)
			} else if dst, err = appendJSONFloat(dst, res.Estimate); err != nil {
				return dst, err
			}
			dst = append(dst, `,"elapsed_ns":`...)
			dst = strconv.AppendInt(dst, res.ElapsedNS, 10)
			dst = append(dst, `,"used_no_overlap":`...)
			dst = strconv.AppendBool(dst, res.UsedNoOverlap)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

// appendJSONFloat formats f as encoding/json does: 'f' notation unless
// |f| < 1e-6 or |f| >= 1e21, with a one-digit negative exponent
// un-padded (e-09 becomes e-9). NaN and infinities fail with
// encoding/json's own error.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONString quotes s. A string that needs any escaping (quote,
// backslash, control or non-ASCII bytes, and the <, > and & that
// encoding/json HTML-escapes by default) is quoted by encoding/json.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
