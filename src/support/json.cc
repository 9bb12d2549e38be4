#include "support/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace ujam
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (unsigned char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonQuote(const std::string &text)
{
    std::string quoted = "\"";
    quoted += jsonEscape(text);
    quoted += '"';
    return quoted;
}

// --- writer ----------------------------------------------------------------

void
JsonWriter::newline()
{
    if (indent_ <= 0)
        return;
    out_ += '\n';
    out_.append(indent_ * hasItems_.size(), ' ');
}

void
JsonWriter::beforeValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!hasItems_.empty()) {
        if (hasItems_.back())
            out_ += ',';
        hasItems_.back() = true;
        newline();
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    out_ += '{';
    hasItems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    bool had = !hasItems_.empty() && hasItems_.back();
    hasItems_.pop_back();
    if (had)
        newline();
    out_ += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    out_ += '[';
    hasItems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    bool had = !hasItems_.empty() && hasItems_.back();
    hasItems_.pop_back();
    if (had)
        newline();
    out_ += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    if (!hasItems_.empty()) {
        if (hasItems_.back())
            out_ += ',';
        hasItems_.back() = true;
        newline();
    }
    out_ += jsonQuote(name);
    out_ += ": ";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &text)
{
    beforeValue();
    out_ += jsonQuote(text);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string(text));
}

JsonWriter &
JsonWriter::value(bool b)
{
    beforeValue();
    out_ += b ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter &
JsonWriter::value(unsigned v)
{
    return value(static_cast<std::uint64_t>(v));
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    beforeValue();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    if (!std::isfinite(v)) {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        out_ += "null";
        return *this;
    }
    char buf[40];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec == std::errc()) {
        out_.append(buf, end);
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out_ += buf;
    }
    return *this;
}

JsonWriter &
JsonWriter::valueFixed(double v, int places)
{
    beforeValue();
    if (!std::isfinite(v)) {
        out_ += "null";
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", places, v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::nullValue()
{
    beforeValue();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::rawValue(const std::string &json)
{
    beforeValue();
    out_ += json;
    return *this;
}

// --- parser ----------------------------------------------------------------

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

std::optional<std::int64_t>
JsonValue::asInt() const
{
    if (kind != Kind::Number)
        return std::nullopt;
    if (numberValue < -9.0e18 || numberValue > 9.0e18)
        return std::nullopt;
    auto integral = static_cast<std::int64_t>(numberValue);
    if (static_cast<double>(integral) != numberValue)
        return std::nullopt;
    return integral;
}

namespace
{

/** Recursive-descent RFC 8259 parser over a byte range. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::size_t max_depth)
        : text_(text), maxDepth_(max_depth)
    {}

    JsonParseResult
    run()
    {
        JsonValue value;
        if (!parseValue(value, 0))
            return {std::nullopt, error_};
        skipWhitespace();
        if (pos_ != text_.size())
            return {std::nullopt, fail("trailing data after document")};
        return {std::move(value), ""};
    }

  private:
    std::string
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = "json: offset " + std::to_string(pos_) + ": " + what;
        return error_;
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    literal(const char *word)
    {
        std::size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0) {
            fail(std::string("expected '") + word + "'");
            return false;
        }
        pos_ += len;
        return true;
    }

    bool
    parseValue(JsonValue &out, std::size_t depth)
    {
        if (depth > maxDepth_) {
            fail("nesting deeper than " + std::to_string(maxDepth_));
            return false;
        }
        skipWhitespace();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return false;
        }
        switch (text_[pos_]) {
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolValue = true;
            return literal("true");
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolValue = false;
            return literal("false");
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.stringValue);
          case '[':
            return parseArray(out, depth);
          case '{':
            return parseObject(out, depth);
          default:
            return parseNumber(out);
        }
    }

    bool
    parseArray(JsonValue &out, std::size_t depth)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue element;
            if (!parseValue(element, depth + 1))
                return false;
            out.elements.push_back(std::move(element));
            skipWhitespace();
            if (pos_ >= text_.size()) {
                fail("unterminated array");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            fail("expected ',' or ']' in array");
            return false;
        }
    }

    bool
    parseObject(JsonValue &out, std::size_t depth)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWhitespace();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key string");
                return false;
            }
            std::string name;
            if (!parseString(name))
                return false;
            skipWhitespace();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                fail("expected ':' after object key");
                return false;
            }
            ++pos_;
            JsonValue member;
            if (!parseValue(member, depth + 1))
                return false;
            out.members.emplace_back(std::move(name), std::move(member));
            skipWhitespace();
            if (pos_ >= text_.size()) {
                fail("unterminated object");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            fail("expected ',' or '}' in object");
            return false;
        }
    }

    bool
    hexQuad(unsigned &out)
    {
        if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
        }
        out = 0;
        for (int k = 0; k < 4; ++k) {
            char c = text_[pos_ + k];
            unsigned digit;
            if (c >= '0' && c <= '9') {
                digit = c - '0';
            } else if (c >= 'a' && c <= 'f') {
                digit = 10 + (c - 'a');
            } else if (c >= 'A' && c <= 'F') {
                digit = 10 + (c - 'A');
            } else {
                fail("bad hex digit in \\u escape");
                return false;
            }
            out = out * 16 + digit;
        }
        pos_ += 4;
        return true;
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (true) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
                return false;
            }
            unsigned char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20) {
                fail("raw control character in string");
                return false;
            }
            if (c != '\\') {
                out += static_cast<char>(c);
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= text_.size()) {
                fail("truncated escape");
                return false;
            }
            char esc = text_[pos_++];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                unsigned cp;
                if (!hexQuad(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: require the low half.
                    if (pos_ + 1 >= text_.size() ||
                        text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
                        fail("unpaired high surrogate");
                        return false;
                    }
                    pos_ += 2;
                    unsigned low;
                    if (!hexQuad(low))
                        return false;
                    if (low < 0xDC00 || low > 0xDFFF) {
                        fail("bad low surrogate");
                        return false;
                    }
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    fail("unpaired low surrogate");
                    return false;
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("unknown escape");
                return false;
            }
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        // Integer part: 0, or a nonzero digit followed by digits.
        if (pos_ >= text_.size() ||
            !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
            fail("expected a value");
            return false;
        }
        if (text_[pos_] == '0') {
            ++pos_;
        } else {
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() ||
                !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
                fail("digits required after decimal point");
                return false;
            }
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() ||
                !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
                fail("digits required in exponent");
                return false;
            }
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        out.kind = JsonValue::Kind::Number;
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        auto [end, ec] =
            std::from_chars(first, last, out.numberValue);
        if (ec == std::errc::result_out_of_range) {
            // Grammar-valid but out of double range; saturate.
            out.numberValue =
                text_[start] == '-' ? -HUGE_VAL : HUGE_VAL;
        } else if (ec != std::errc() || end != last) {
            fail("malformed number");
            return false;
        }
        return true;
    }

    const std::string &text_;
    std::size_t maxDepth_;
    std::size_t pos_ = 0;
    std::string error_;
};

} // namespace

JsonParseResult
parseJson(const std::string &text, std::size_t max_depth)
{
    return JsonParser(text, max_depth).run();
}

} // namespace ujam
