#include "exp/json.hh"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "sim/logging.hh"

namespace persim::exp
{

void
writeJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; serialize as null so output stays valid.
        os << "null";
        return;
    }
    // Integral values within int64 range render without a fraction;
    // everything else uses the shortest round-trip representation.
    if (v == std::floor(v) && std::fabs(v) < 9.2e18) {
        char buf[24];
        auto res = std::to_chars(buf, buf + sizeof(buf),
                                 static_cast<std::int64_t>(v));
        os.write(buf, res.ptr - buf);
        return;
    }
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    os.write(buf, res.ptr - buf);
}

void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (unsigned char c : s) {
        switch (c) {
        case '"':
            os << "\\\"";
            break;
        case '\\':
            os << "\\\\";
            break;
        case '\n':
            os << "\\n";
            break;
        case '\t':
            os << "\\t";
            break;
        case '\r':
            os << "\\r";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << static_cast<char>(c);
            }
        }
    }
    os << '"';
}

JsonValue &
JsonValue::push(JsonValue v)
{
    simAssert(_kind == Kind::Array, "JsonValue::push on non-array");
    _items.push_back(std::move(v));
    return _items.back();
}

JsonValue &
JsonValue::operator[](const std::string &key)
{
    simAssert(_kind == Kind::Object, "JsonValue::[] on non-object");
    for (auto &[k, v] : _members) {
        if (k == key)
            return v;
    }
    _members.emplace_back(key, JsonValue());
    return _members.back().second;
}

const JsonValue *
JsonValue::get(const std::string &key) const
{
    if (_kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : _members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

void
JsonValue::write(std::ostream &os, unsigned indent, unsigned depth) const
{
    const std::string pad =
        indent ? std::string(indent * (depth + 1), ' ') : std::string();
    const std::string closePad =
        indent ? std::string(indent * depth, ' ') : std::string();
    const char *nl = indent ? "\n" : "";
    const char *colon = indent ? ": " : ":";

    switch (_kind) {
    case Kind::Null:
        os << "null";
        break;
    case Kind::Bool:
        os << (_bool ? "true" : "false");
        break;
    case Kind::Number:
        writeJsonNumber(os, _num);
        break;
    case Kind::String:
        writeJsonString(os, _str);
        break;
    case Kind::Array:
        if (_items.empty()) {
            os << "[]";
            break;
        }
        os << '[' << nl;
        for (std::size_t i = 0; i < _items.size(); ++i) {
            os << pad;
            _items[i].write(os, indent, depth + 1);
            if (i + 1 < _items.size())
                os << ',';
            os << nl;
        }
        os << closePad << ']';
        break;
    case Kind::Object:
        if (_members.empty()) {
            os << "{}";
            break;
        }
        os << '{' << nl;
        for (std::size_t i = 0; i < _members.size(); ++i) {
            os << pad;
            writeJsonString(os, _members[i].first);
            os << colon;
            _members[i].second.write(os, indent, depth + 1);
            if (i + 1 < _members.size())
                os << ',';
            os << nl;
        }
        os << closePad << '}';
        break;
    }
}

std::string
JsonValue::dump(unsigned indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (_kind != other._kind)
        return false;
    switch (_kind) {
    case Kind::Null:
        return true;
    case Kind::Bool:
        return _bool == other._bool;
    case Kind::Number:
        return _num == other._num;
    case Kind::String:
        return _str == other._str;
    case Kind::Array:
        return _items == other._items;
    case Kind::Object:
        return _members == other._members;
    }
    return false;
}

// ---------------------------------------------------------------------
// Parser: plain recursive descent over the full JSON grammar.
// ---------------------------------------------------------------------

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : _s(text) {}

    JsonValue parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (_pos != _s.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &why) const
    {
        persim::fatal("JSON parse error at offset ", _pos, ": ", why);
    }

    void skipWs()
    {
        while (_pos < _s.size() &&
               (_s[_pos] == ' ' || _s[_pos] == '\t' || _s[_pos] == '\n' ||
                _s[_pos] == '\r'))
            ++_pos;
    }

    char peek()
    {
        skipWs();
        if (_pos >= _s.size())
            fail("unexpected end of input");
        return _s[_pos];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++_pos;
    }

    bool consumeLiteral(const char *lit)
    {
        const std::size_t n = std::string(lit).size();
        if (_s.compare(_pos, n, lit) == 0) {
            _pos += n;
            return true;
        }
        return false;
    }

    JsonValue parseValue()
    {
        switch (peek()) {
        case '{':
            return parseObject();
        case '[':
            return parseArray();
        case '"':
            return JsonValue(parseString());
        case 't':
            if (consumeLiteral("true"))
                return JsonValue(true);
            fail("bad literal");
        case 'f':
            if (consumeLiteral("false"))
                return JsonValue(false);
            fail("bad literal");
        case 'n':
            if (consumeLiteral("null"))
                return JsonValue();
            fail("bad literal");
        default:
            return parseNumber();
        }
    }

    JsonValue parseObject()
    {
        expect('{');
        JsonValue obj = JsonValue::object();
        if (peek() == '}') {
            ++_pos;
            return obj;
        }
        while (true) {
            if (peek() != '"')
                fail("expected member name");
            std::string key = parseString();
            expect(':');
            obj[key] = parseValue();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    JsonValue parseArray()
    {
        expect('[');
        JsonValue arr = JsonValue::array();
        if (peek() == ']') {
            ++_pos;
            return arr;
        }
        while (true) {
            arr.push(parseValue());
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _s.size())
                fail("unterminated string");
            char c = _s[_pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _s.size())
                fail("unterminated escape");
            char e = _s[_pos++];
            switch (e) {
            case '"':
                out += '"';
                break;
            case '\\':
                out += '\\';
                break;
            case '/':
                out += '/';
                break;
            case 'n':
                out += '\n';
                break;
            case 't':
                out += '\t';
                break;
            case 'r':
                out += '\r';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'u': {
                if (_pos + 4 > _s.size())
                    fail("short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = _s[_pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // Encode as UTF-8 (no surrogate-pair handling; the
                // writer only emits \u for control characters).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                fail("unknown escape");
            }
        }
    }

    JsonValue parseNumber()
    {
        skipWs();
        const std::size_t start = _pos;
        if (_pos < _s.size() && (_s[_pos] == '-' || _s[_pos] == '+'))
            ++_pos;
        while (_pos < _s.size() &&
               (std::isdigit(static_cast<unsigned char>(_s[_pos])) ||
                _s[_pos] == '.' || _s[_pos] == 'e' || _s[_pos] == 'E' ||
                _s[_pos] == '+' || _s[_pos] == '-'))
            ++_pos;
        if (_pos == start)
            fail("expected a value");
        double v = 0.0;
        auto res = std::from_chars(_s.data() + start, _s.data() + _pos, v);
        if (res.ec != std::errc() || res.ptr != _s.data() + _pos)
            fail("bad number");
        return JsonValue(v);
    }

    const std::string &_s;
    std::size_t _pos = 0;
};

} // namespace

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

void
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0)
        fatal("cannot write ", tmp, ": ", std::strerror(errno));
    const char *data = content.data();
    std::size_t left = content.size();
    while (left > 0) {
        const ssize_t w = ::write(fd, data, left);
        if (w < 0 && errno == EINTR)
            continue;
        if (w < 0) {
            ::close(fd);
            fatal("cannot write ", tmp, ": ", std::strerror(errno));
        }
        data += w;
        left -= static_cast<std::size_t>(w);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        fatal("cannot write ", tmp, ": ", std::strerror(errno));
    }
    ::close(fd);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename ", tmp, " to ", path, ": ",
              std::strerror(errno));

    // Make the rename itself durable.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

} // namespace persim::exp
