package obs

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// OTLP-compatible JSON encoding of SpanData. The field names follow
// the OTLP/JSON span mapping (traceId, spanId, parentSpanId,
// startTimeUnixNano, endTimeUnixNano, attributes with typed value
// wrappers, status.code) so exported traces load into standard
// tooling; 64-bit integers are strings, as OTLP/JSON requires. Span
// events map to events[] (timeUnixNano, name, attributes) and the
// events past the per-span bound to droppedEventsCount.

type otlpSpan struct {
	TraceID       string      `json:"traceId"`
	SpanID        string      `json:"spanId"`
	ParentID      string      `json:"parentSpanId,omitempty"`
	Name          string      `json:"name"`
	StartNano     string      `json:"startTimeUnixNano"`
	EndNano       string      `json:"endTimeUnixNano"`
	Attrs         []otlpAttr  `json:"attributes,omitempty"`
	Events        []otlpEvent `json:"events,omitempty"`
	DroppedEvents int         `json:"droppedEventsCount,omitempty"`
	Status        otlpStatus  `json:"status"`
}

type otlpEvent struct {
	TimeNano string     `json:"timeUnixNano"`
	Name     string     `json:"name"`
	Attrs    []otlpAttr `json:"attributes,omitempty"`
}

type otlpAttr struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	Str    *string  `json:"stringValue,omitempty"`
	Int    *string  `json:"intValue,omitempty"`
	Double *float64 `json:"doubleValue,omitempty"`
	Bool   *bool    `json:"boolValue,omitempty"`
}

type otlpStatus struct {
	Code    int    `json:"code"`
	Message string `json:"message,omitempty"`
}

// MarshalJSON renders the span in the OTLP/JSON field layout.
func (sd SpanData) MarshalJSON() ([]byte, error) {
	o := otlpSpan{
		TraceID:       sd.TraceID.String(),
		SpanID:        sd.SpanID.String(),
		Name:          sd.Name,
		StartNano:     strconv.FormatInt(sd.Start.UnixNano(), 10),
		EndNano:       strconv.FormatInt(sd.Start.Add(sd.Duration).UnixNano(), 10),
		Attrs:         encodeAttrs(sd.Attrs),
		DroppedEvents: sd.DroppedEvents,
		Status:        otlpStatus{Code: int(sd.Status), Message: sd.StatusMsg},
	}
	if !sd.Parent.IsZero() {
		o.ParentID = sd.Parent.String()
	}
	for _, ev := range sd.Events {
		o.Events = append(o.Events, otlpEvent{
			TimeNano: strconv.FormatInt(ev.Time.UnixNano(), 10),
			Name:     ev.Name,
			Attrs:    encodeAttrs(ev.Attrs),
		})
	}
	return json.Marshal(o)
}

func encodeAttrs(attrs []Attr) []otlpAttr {
	var out []otlpAttr
	for _, a := range attrs {
		oa := otlpAttr{Key: a.Key}
		switch a.kind {
		case attrInt:
			v := strconv.FormatInt(a.i, 10)
			oa.Value.Int = &v
		case attrFloat:
			f := a.f
			oa.Value.Double = &f
		case attrBool:
			b := a.i != 0
			oa.Value.Bool = &b
		default:
			s := a.s
			oa.Value.Str = &s
		}
		out = append(out, oa)
	}
	return out
}

// UnmarshalJSON decodes the OTLP/JSON layout produced by MarshalJSON
// (flexray-bench uses it to re-assemble exported traces).
func (sd *SpanData) UnmarshalJSON(b []byte) error {
	var o otlpSpan
	if err := json.Unmarshal(b, &o); err != nil {
		return err
	}
	tid, err := ParseTraceID(o.TraceID)
	if err != nil {
		return fmt.Errorf("obs: span traceId %q: %w", o.TraceID, err)
	}
	var sid SpanID
	if err := decodeSpanID(&sid, o.SpanID); err != nil {
		return fmt.Errorf("obs: span spanId %q: %w", o.SpanID, err)
	}
	var pid SpanID
	if o.ParentID != "" {
		if err := decodeSpanID(&pid, o.ParentID); err != nil {
			return fmt.Errorf("obs: span parentSpanId %q: %w", o.ParentID, err)
		}
	}
	startNS, err := strconv.ParseInt(o.StartNano, 10, 64)
	if err != nil {
		return fmt.Errorf("obs: span startTimeUnixNano: %w", err)
	}
	endNS, err := strconv.ParseInt(o.EndNano, 10, 64)
	if err != nil {
		return fmt.Errorf("obs: span endTimeUnixNano: %w", err)
	}
	*sd = SpanData{
		TraceID:       tid,
		SpanID:        sid,
		Parent:        pid,
		Name:          o.Name,
		Start:         time.Unix(0, startNS),
		Duration:      time.Duration(endNS - startNS),
		DroppedEvents: o.DroppedEvents,
		Status:        uint8(o.Status.Code),
		StatusMsg:     o.Status.Message,
	}
	if sd.Attrs, err = decodeAttrs(o.Attrs); err != nil {
		return err
	}
	for _, oe := range o.Events {
		ns, err := strconv.ParseInt(oe.TimeNano, 10, 64)
		if err != nil {
			return fmt.Errorf("obs: span event %q timeUnixNano: %w", oe.Name, err)
		}
		attrs, err := decodeAttrs(oe.Attrs)
		if err != nil {
			return err
		}
		sd.Events = append(sd.Events, SpanEvent{Name: oe.Name, Time: time.Unix(0, ns), Attrs: attrs})
	}
	return nil
}

func decodeAttrs(oas []otlpAttr) ([]Attr, error) {
	var out []Attr
	for _, oa := range oas {
		switch {
		case oa.Value.Int != nil:
			i, err := strconv.ParseInt(*oa.Value.Int, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("obs: span attribute %q: %w", oa.Key, err)
			}
			out = append(out, IntAttr(oa.Key, i))
		case oa.Value.Double != nil:
			out = append(out, FloatAttr(oa.Key, *oa.Value.Double))
		case oa.Value.Bool != nil:
			out = append(out, BoolAttr(oa.Key, *oa.Value.Bool))
		default:
			var s string
			if oa.Value.Str != nil {
				s = *oa.Value.Str
			}
			out = append(out, StringAttr(oa.Key, s))
		}
	}
	return out, nil
}

func decodeSpanID(dst *SpanID, v string) error {
	if len(v) != 16 || !isLowerHex(v) {
		return errTraceparentSpan
	}
	if _, err := hex.Decode(dst[:], []byte(v)); err != nil {
		return errTraceparentSpan
	}
	return nil
}
