//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the two
//! shapes the KaPPa workspace derives on — structs with named fields and
//! fieldless enums — by walking the raw token stream (the environment has no
//! `syn`/`quote`). Generic types, tuple structs and enums with payloads are
//! rejected with a compile-time panic so misuse is loud, not silently wrong.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    /// Named struct fields, in declaration order.
    Struct(Vec<String>),
    /// Fieldless enum variants, in declaration order.
    Enum(Vec<String>),
}

struct Input {
    name: String,
    shape: Shape,
}

/// Derives `serde::Serialize` (the shim trait) for a named-field struct or a
/// fieldless enum.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let body = match &input.shape {
        Shape::Struct(fields) => {
            let pushes: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "fields.push((::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_json_value(&self.{f})));\n"
                    )
                })
                .collect();
            format!(
                "let mut fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                 ::std::vec::Vec::new();\n{pushes}::serde::Value::Object(fields)"
            )
        }
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    format!(
                        "{}::{v} => ::serde::Value::String(::std::string::String::from(\"{v}\")),\n",
                        input.name
                    )
                })
                .collect();
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {} {{\n\
         fn to_json_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n",
        input.name
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// Derives `serde::Deserialize` (the shim trait) for a named-field struct or
/// a fieldless enum.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let body = match &input.shape {
        Shape::Struct(fields) => {
            let inits: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_json_value(value.get(\"{f}\")\
                         .ok_or_else(|| ::std::string::String::from(\"missing field `{f}`\"))?)?,\n"
                    )
                })
                .collect();
            format!("::std::result::Result::Ok({} {{\n{inits}}})", input.name)
        }
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    format!(
                        "::std::option::Option::Some(\"{v}\") => \
                         ::std::result::Result::Ok({}::{v}),\n",
                        input.name
                    )
                })
                .collect();
            format!(
                "match value.as_str() {{\n{arms}other => ::std::result::Result::Err(\
                 ::std::format!(\"unknown variant {{other:?}} for {}\")),\n}}",
                input.name
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {} {{\n\
         fn from_json_value(value: &::serde::Value) \
         -> ::std::result::Result<Self, ::std::string::String> {{\n{body}\n}}\n}}\n",
        input.name
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

fn parse_input(input: TokenStream) -> Input {
    let mut tokens = input.into_iter();
    // Skip attributes (`#[...]`, doc comments) and visibility until the
    // `struct`/`enum` keyword.
    let is_enum = loop {
        match tokens.next() {
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => break false,
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => break true,
            Some(_) => continue,
            None => panic!("derive input has no `struct` or `enum` keyword"),
        }
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected type name after struct/enum, found {other:?}"),
    };
    let body = loop {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.stream(),
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                panic!("the serde shim derive does not support generic types")
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("the serde shim derive does not support tuple structs")
            }
            Some(_) => continue,
            None => panic!("derive input has no body"),
        }
    };
    let shape = if is_enum {
        Shape::Enum(parse_unit_variants(body))
    } else {
        Shape::Struct(parse_named_fields(body))
    };
    Input { name, shape }
}

/// Extracts field names from the body of a named-field struct.
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        skip_attributes_and_visibility(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected field name, found {other:?}"),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{name}`, found {other:?}"),
        }
        fields.push(name);
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut angle_depth = 0i32;
        for tt in tokens.by_ref() {
            match tt {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
        }
    }
    fields
}

/// Extracts variant names from the body of a fieldless enum.
fn parse_unit_variants(body: TokenStream) -> Vec<String> {
    let mut variants = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        skip_attributes_and_visibility(&mut tokens);
        let name = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected variant name, found {other:?}"),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => {
                variants.push(name);
                break;
            }
            Some(TokenTree::Group(_)) => {
                panic!("the serde shim derive only supports fieldless enum variants")
            }
            other => panic!("unexpected token after variant `{name}`: {other:?}"),
        }
        variants.push(name);
    }
    variants
}

fn skip_attributes_and_visibility(
    tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>,
) {
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                // The bracketed attribute body.
                tokens.next();
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                // Optional `pub(...)` restriction.
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            _ => break,
        }
    }
}
