//! A minimal JSON well-formedness checker.
//!
//! The workspace vendors no serializer, so the [`crate::diag`] renderer
//! writes JSON by hand — and anything hand-written needs an independent
//! validator. This is a strict RFC 8259 recognizer (no DOM, no
//! numbers-to-float conversion): [`validate`] accepts exactly the
//! well-formed documents, which is all the tests and the CI gate need.

/// Checks that `text` is one well-formed JSON value with nothing trailing.
///
/// # Errors
///
/// Returns a byte offset and message for the first violation.
pub fn validate(text: &str) -> Result<(), (usize, String)> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err((pos, "trailing characters after the document".into()));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn fail(pos: usize, msg: &str) -> (usize, String) {
    (pos, msg.to_string())
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), (usize, String)> {
    match b.get(*pos) {
        None => Err(fail(*pos, "expected a value")),
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, "true"),
        Some(b'f') => literal(b, pos, "false"),
        Some(b'n') => literal(b, pos, "null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, pos),
        Some(_) => Err(fail(*pos, "unexpected character")),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), (usize, String)> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(fail(*pos, "bad literal"))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), (usize, String)> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(fail(*pos, "expected a string key"));
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(fail(*pos, "expected `:`"));
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(fail(*pos, "expected `,` or `}`")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), (usize, String)> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(fail(*pos, "expected `,` or `]`")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), (usize, String)> {
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(fail(*pos, "bad \\u escape"));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(fail(*pos, "bad escape")),
                }
            }
            0x00..=0x1f => return Err(fail(*pos, "unescaped control character")),
            _ => *pos += 1,
        }
    }
    Err(fail(*pos, "unterminated string"))
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), (usize, String)> {
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    let int_len = *pos - digits_start;
    if int_len == 0 {
        return Err(fail(*pos, "expected digits"));
    }
    if int_len > 1 && b[digits_start] == b'0' {
        return Err(fail(digits_start, "leading zero"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == start {
            return Err(fail(*pos, "expected fraction digits"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == start {
            return Err(fail(*pos, "expected exponent digits"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-0.5e+3",
            r#"{"a":[1,2,{"b":"x\ny","c":true}],"d":null}"#,
            "  [ 1 , \"two\" ]  ",
            r#""é""#,
        ] {
            validate(doc).unwrap_or_else(|e| panic!("rejected {doc}: {e:?}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1 2",
            "\"unterminated",
            "\"bad \\q escape\"",
            "{'a':1}",
            "nul",
            "\"ctrl \u{0}\"",
        ] {
            assert!(validate(doc).is_err(), "accepted {doc:?}");
        }
    }
}
