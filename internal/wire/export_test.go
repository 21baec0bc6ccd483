package wire

// PayloadOf is the payload a frame carrying fields, and no bulk, yields.
func PayloadOf(fields []byte) Payload { return Payload{fields: fields} }

// FieldsOf is p's positional bytes as a frame carries them.
func FieldsOf(p Payload) []byte { return p.framed().fields }
