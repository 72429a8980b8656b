//! The corpus decoder: one typed pass over RecipeDB JSON.
//!
//! Parsing a corpus to a `serde_json::Value` tree and reading the schema
//! off that tree takes two passes, and a transient several times the
//! size of the corpus it produces. This decoder walks the bytes once and
//! fills the catalog, the recipes and the cuisine index directly. Names
//! are copied straight out of the input (one exact-size allocation
//! each), id lists go through a reused scratch buffer into exact-size
//! vectors, and values under keys the schema does not know are
//! validated and skipped without being stored.
//!
//! It accepts and rejects exactly what the reference decoder over a
//! `Value` tree in `tests/common/reference.rs` does (pinned by
//! `tests/decode_differential.rs`), and that reference spells out these
//! rules directly:
//!
//! * unknown keys are ignored, at every level;
//! * on a duplicate key the last value wins, so an invalid earlier
//!   value is an error only if no later duplicate replaces it;
//! * a missing field is an error;
//! * ids are integers in `u32`; an integral float such as `3.0` counts
//!   as one, a fraction, a negative number or anything larger does not;
//! * string escapes, number syntax and the nesting limit follow the
//!   `serde_json` text parser, and a syntax error anywhere in the text
//!   is reported ahead of any schema error.

use std::borrow::Cow;

use crate::catalog::Catalog;
use crate::cuisine::Cuisine;
use crate::error::RecipeDbError;
use crate::model::{IngredientId, ProcessId, Recipe, RecipeId, UtensilId};
use crate::store::RecipeDb;

/// Nesting limit of the `serde_json` text parser, applied the same way
/// to skipped values.
const MAX_DEPTH: usize = 128;

/// Decode a corpus and check its invariants.
pub(crate) fn corpus(text: &str) -> Result<RecipeDb, RecipeDbError> {
    let mut decoder = Decoder {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        ids: Vec::new(),
    };
    let (catalog, recipes, by_cuisine) = decoder.document().map_err(|fault| {
        let (Fault::Syntax(msg) | Fault::Schema(msg)) = fault;
        RecipeDbError::Json(serde_json::Error::msg(msg))
    })?;
    RecipeDb::from_parts(catalog, recipes, by_cuisine)
}

/// Why decoding stopped.
enum Fault {
    /// The text is not JSON: fatal wherever it occurs.
    Syntax(String),
    /// Well-formed JSON that does not fit the schema: fatal unless a
    /// later duplicate key replaces the value that raised it.
    Schema(String),
}

type Step<T> = Result<T, Fault>;

/// A field's value as last seen: absent, decoded, or a schema error
/// parked until its object ends.
type Slot<T> = Option<Result<T, String>>;

type Parts = (Catalog, Vec<Recipe>, Vec<Vec<RecipeId>>);

fn schema(msg: impl Into<String>) -> Fault {
    Fault::Schema(msg.into())
}

/// The value of a finished object's field, or the error for it.
fn take<T>(slot: Slot<T>, ty: &str, key: &str) -> Step<T> {
    match slot {
        Some(Ok(value)) => Ok(value),
        Some(Err(msg)) => Err(schema(format!("{ty}.{key}: {msg}"))),
        None => Err(schema(format!(
            "missing field `{key}` while deserializing {ty}"
        ))),
    }
}

enum Number {
    Int(i128),
    Float(f64),
}

struct Decoder<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Scratch for id lists, reused so each list is copied once, into
    /// a vector of exactly its length.
    ids: Vec<u32>,
}

impl<'a> Decoder<'a> {
    fn syntax(&self, msg: &str) -> Fault {
        Fault::Syntax(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Step<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(&format!("expected {:?}", b as char)))
        }
    }

    /// Only whitespace may follow the document.
    fn end(&mut self) -> Step<()> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.syntax("trailing characters after JSON document"))
        }
    }

    fn document(&mut self) -> Step<Parts> {
        let decoded = self.root();
        if let Err(Fault::Schema(_)) = decoded {
            // A syntax error anywhere in the text outranks a schema
            // error, as it does when the text is parsed to a tree before
            // the schema is read off it.
            self.pos = 0;
            self.skip_ws();
            self.skip_value(0)?;
            self.end()?;
        }
        decoded
    }

    fn root(&mut self) -> Step<Parts> {
        self.skip_ws();
        let (mut catalog, mut recipes, mut by_cuisine) = (None, None, None);
        self.object(
            0,
            "RecipeDb",
            &["catalog", "recipes", "by_cuisine"],
            |d, key| match key {
                0 => d.field(1, &mut catalog, Self::catalog),
                1 => d.field(1, &mut recipes, |d| d.list(Self::recipe)),
                _ => d.field(1, &mut by_cuisine, |d| d.list(|d| d.ids(RecipeId))),
            },
        )?;
        self.end()?;
        Ok((
            take(catalog, "RecipeDb", "catalog")?,
            take(recipes, "RecipeDb", "recipes")?,
            take(by_cuisine, "RecipeDb", "by_cuisine")?,
        ))
    }

    fn catalog(&mut self) -> Step<Catalog> {
        let (mut ingredients, mut processes, mut utensils) = (None, None, None);
        self.object(
            1,
            "Catalog",
            &["ingredients", "processes", "utensils"],
            |d, key| {
                let slot = match key {
                    0 => &mut ingredients,
                    1 => &mut processes,
                    _ => &mut utensils,
                };
                d.field(2, slot, Self::interner)
            },
        )?;
        Ok(Catalog::from_names(
            take(ingredients, "Catalog", "ingredients")?,
            take(processes, "Catalog", "processes")?,
            take(utensils, "Catalog", "utensils")?,
        ))
    }

    /// An interner's name list (its reverse index is not serialized).
    fn interner(&mut self) -> Step<Vec<String>> {
        let mut names = None;
        self.object(2, "Interner", &["names"], |d, _| {
            d.field(3, &mut names, |d| d.list(Self::owned_string))
        })?;
        take(names, "Interner", "names")
    }

    fn recipe(&mut self) -> Step<Recipe> {
        let (mut id, mut name, mut cuisine) = (None, None, None);
        let (mut ingredients, mut processes, mut utensils) = (None, None, None);
        self.object(
            2,
            "Recipe",
            &[
                "id",
                "name",
                "cuisine",
                "ingredients",
                "processes",
                "utensils",
            ],
            |d, key| match key {
                0 => d.field(3, &mut id, |d| d.u32().map(RecipeId)),
                1 => d.field(3, &mut name, Self::owned_string),
                2 => d.field(3, &mut cuisine, Self::cuisine),
                3 => d.field(3, &mut ingredients, |d| d.ids(IngredientId)),
                4 => d.field(3, &mut processes, |d| d.ids(ProcessId)),
                _ => d.field(3, &mut utensils, |d| d.ids(UtensilId)),
            },
        )?;
        Ok(Recipe {
            id: take(id, "Recipe", "id")?,
            name: take(name, "Recipe", "name")?,
            cuisine: take(cuisine, "Recipe", "cuisine")?,
            ingredients: take(ingredients, "Recipe", "ingredients")?,
            processes: take(processes, "Recipe", "processes")?,
            utensils: take(utensils, "Recipe", "utensils")?,
        })
    }

    /// Decode a known key's value, at nesting `depth`, into its slot. A
    /// schema error is parked in the slot and the value skipped instead
    /// of failing at once: a later duplicate of the key replaces it.
    fn field<T>(
        &mut self,
        depth: usize,
        slot: &mut Slot<T>,
        decode: impl FnOnce(&mut Self) -> Step<T>,
    ) -> Step<()> {
        let start = self.pos;
        *slot = Some(match decode(self) {
            Ok(value) => Ok(value),
            Err(Fault::Schema(msg)) => {
                self.pos = start;
                self.skip_value(depth)?;
                Err(msg)
            }
            Err(syntax) => return Err(syntax),
        });
        Ok(())
    }

    /// Walk an object at nesting `depth`, handing `field` the index in
    /// `keys` of every key it lists (positioned at the value) and
    /// skipping the values of all other keys.
    fn object(
        &mut self,
        depth: usize,
        ty: &str,
        keys: &[&str],
        mut field: impl FnMut(&mut Self, usize) -> Step<()>,
    ) -> Step<()> {
        if self.peek() != Some(b'{') {
            return Err(schema(format!("expected object while deserializing {ty}")));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            match keys.iter().position(|k| *k == key) {
                Some(i) => field(self, i)?,
                None => self.skip_value(depth + 1)?,
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.syntax("expected ',' or '}' in object")),
            }
        }
    }

    /// Walk an array, calling `elem` positioned at each element.
    fn array(&mut self, mut elem: impl FnMut(&mut Self) -> Step<()>) -> Step<()> {
        if self.peek() != Some(b'[') {
            return Err(schema("expected array while deserializing Vec"));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            elem(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.syntax("expected ',' or ']' in array")),
            }
        }
    }

    fn list<T>(&mut self, mut elem: impl FnMut(&mut Self) -> Step<T>) -> Step<Vec<T>> {
        let mut out = Vec::new();
        self.array(|d| {
            out.push(elem(d)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// An id list, through the scratch buffer into an exact-size vector.
    fn ids<T>(&mut self, wrap: impl Fn(u32) -> T) -> Step<Vec<T>> {
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        let walked = self.array(|d| {
            ids.push(d.u32()?);
            Ok(())
        });
        let out = walked.map(|()| ids.iter().map(|&id| wrap(id)).collect());
        self.ids = ids;
        out
    }

    fn u32(&mut self) -> Step<u32> {
        const EXPECTED: &str = "expected integer while deserializing u32";
        let n = match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number()?,
            _ => return Err(schema(EXPECTED)),
        };
        let n = match n {
            Number::Int(n) => n,
            Number::Float(f) if f.fract() == 0.0 && f.is_finite() => f as i128,
            Number::Float(_) => return Err(schema(EXPECTED)),
        };
        u32::try_from(n).map_err(|_| schema(format!("{n} out of range for u32")))
    }

    fn owned_string(&mut self) -> Step<String> {
        if self.peek() != Some(b'"') {
            return Err(schema("expected string while deserializing String"));
        }
        Ok(self.string()?.into_owned())
    }

    /// A cuisine, stored as its variant identifier.
    fn cuisine(&mut self) -> Step<Cuisine> {
        if self.peek() != Some(b'"') {
            return Err(schema(
                "expected string or single-key object while deserializing Cuisine",
            ));
        }
        let ident = self.string()?;
        Cuisine::from_ident(&ident)
            .ok_or_else(|| schema(format!("unknown Cuisine variant {ident:?}")))
    }

    /// Validate and skip any value at nesting `depth`.
    fn skip_value(&mut self, depth: usize) -> Step<()> {
        if depth > MAX_DEPTH {
            return Err(self.syntax("recursion limit exceeded"));
        }
        match self.peek() {
            Some(b'n') => self.keyword("null"),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.array(|d| d.skip_value(depth + 1)),
            Some(b'{') => self.object(depth, "", &[], |_, _| Ok(())),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(_) => Err(self.syntax("unexpected character")),
            None => Err(self.syntax("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str) -> Step<()> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.syntax("invalid literal"))
        }
    }

    /// A string at its opening quote, borrowed from the input when it
    /// holds no escapes. Plain runs end only at ASCII bytes, so every
    /// slice of the input falls on a char boundary.
    fn string(&mut self) -> Step<Cow<'a, str>> {
        self.expect(b'"')?;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            self.pos += self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            let run = &text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    self.escape(out)?;
                }
                Some(_) => return Err(self.syntax("control character in string")),
                None => return Err(self.syntax("unterminated string")),
            }
        }
    }

    /// Decode the escape sequence after a backslash onto `out`.
    fn escape(&mut self, out: &mut String) -> Step<()> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&cp) {
                    if self.peek() != Some(b'\\') {
                        return Err(self.syntax("lone high surrogate"));
                    }
                    self.pos += 1;
                    self.expect(b'u')?;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.syntax("invalid low surrogate"));
                    }
                    char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00))
                        .ok_or_else(|| self.syntax("invalid surrogate pair"))?
                } else {
                    char::from_u32(cp).ok_or_else(|| self.syntax("invalid unicode escape"))?
                };
                out.push(c);
                return Ok(());
            }
            _ => return Err(self.syntax("invalid escape")),
        };
        self.pos += 1;
        out.push(c);
        Ok(())
    }

    fn hex4(&mut self) -> Step<u32> {
        let Some(hex) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.syntax("truncated \\u escape"));
        };
        let cp = std::str::from_utf8(hex)
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.syntax("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// Scan and parse a number as the text parser does: an integer
    /// literal that fits `i64` or `u64` stays exact, anything else goes
    /// through `f64`.
    fn number(&mut self) -> Step<Number> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(self.syntax("bad number"));
        }
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i.into()));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::Int(u.into()));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.syntax("bad number"))
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}
