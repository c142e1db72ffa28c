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
