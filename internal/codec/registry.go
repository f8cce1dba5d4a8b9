package codec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Spec is a parsed codec spec string: "family:key=val,key=val,flag+stage".
// Bare keys (no '=') are boolean flags; the optional "+name" suffix (a
// '+' followed by a letter, so numeric values like eb=1e+3 are safe)
// names the entropy stage applied to the encoded payload: "huf", or
// "fse", which decodes but cannot be written (see stage.go).
type Spec struct {
	Family string
	Stage  string
	kv     map[string]string
}

// ParseSpec splits a spec string into family, options, and stage
// suffix. It rejects empty families, empty keys, duplicate keys, and
// any stage suffix other than one "huf" or "fse", naming the offender.
// Failures carry the ErrBadSpec kind.
func ParseSpec(s string) (Spec, error) {
	spec, err := parseSpec(s)
	if err != nil {
		return spec, markErr(ErrBadSpec, err)
	}
	return spec, nil
}

func parseSpec(s string) (Spec, error) {
	base, stage := splitSpecStage(strings.TrimSpace(s))
	switch {
	case stageCut(stage) >= 0:
		return Spec{}, fmt.Errorf("codec: %q chains stages; a spec takes at most one", s)
	case stage != "" && stage != "huf" && stage != "fse":
		return Spec{}, fmt.Errorf("codec: unknown stage %q (want huf; fse is decode-only)", stage)
	}
	family, rest, hasOpts := strings.Cut(base, ":")
	family = strings.TrimSpace(family)
	if family == "" {
		return Spec{}, fmt.Errorf("codec: empty spec string")
	}
	spec := Spec{Family: family, Stage: stage, kv: map[string]string{}}
	if !hasOpts {
		return spec, nil
	}
	for _, part := range strings.Split(rest, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, hasVal := strings.Cut(part, "=")
		key = strings.TrimSpace(key)
		if key == "" {
			return Spec{}, fmt.Errorf("codec: %s: empty option key in %q", family, part)
		}
		if _, dup := spec.kv[key]; dup {
			return Spec{}, fmt.Errorf("codec: %s: duplicate option key %q", family, key)
		}
		if !hasVal {
			val = "true"
		} else {
			val = strings.TrimSpace(val)
		}
		spec.kv[key] = val
	}
	return spec, nil
}

// options wraps the parsed key/values for a builder, tracking which
// keys were consumed and accumulating the first typed-getter error.
func (s Spec) options() *Options {
	return &Options{family: s.Family, kv: s.kv, used: map[string]bool{}}
}

// Options gives family builders typed access to spec options. Getters
// record the first conversion error; finish reports it, or any keys the
// builder never consumed — so a typo like "zfp:rat=8" fails loudly with
// the bad key named.
type Options struct {
	family string
	kv     map[string]string
	used   map[string]bool
	err    error
}

func (o *Options) fail(key, val, want string) {
	if o.err == nil {
		o.err = fmt.Errorf("codec: %s: invalid value %q for key %q (want %s)", o.family, val, key, want)
	}
}

// Int reads an integer option, or def when absent.
func (o *Options) Int(key string, def int) int {
	o.used[key] = true
	val, ok := o.kv[key]
	if !ok {
		return def
	}
	v, err := strconv.Atoi(val)
	if err != nil {
		o.fail(key, val, "integer")
		return def
	}
	return v
}

// Float reads a float option, or def when absent.
func (o *Options) Float(key string, def float64) float64 {
	o.used[key] = true
	val, ok := o.kv[key]
	if !ok {
		return def
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		o.fail(key, val, "number")
		return def
	}
	return v
}

// Bool reads a boolean option (a bare flag key parses as true), or def
// when absent.
func (o *Options) Bool(key string, def bool) bool {
	o.used[key] = true
	val, ok := o.kv[key]
	if !ok {
		return def
	}
	v, err := strconv.ParseBool(val)
	if err != nil {
		o.fail(key, val, "boolean")
		return def
	}
	return v
}

// String reads a string option, or def when absent.
func (o *Options) String(key, def string) string {
	o.used[key] = true
	val, ok := o.kv[key]
	if !ok {
		return def
	}
	return val
}

// finish returns the first getter error, or an error naming any option
// keys the builder never consumed.
func (o *Options) finish() error {
	if o.err != nil {
		return o.err
	}
	var unknown []string
	for key := range o.kv {
		if !o.used[key] {
			unknown = append(unknown, key)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		valid := make([]string, 0, len(o.used))
		for key := range o.used {
			valid = append(valid, key)
		}
		sort.Strings(valid)
		return fmt.Errorf("codec: %s: unknown option key(s) %v (valid: %v)", o.family, unknown, valid)
	}
	return nil
}
