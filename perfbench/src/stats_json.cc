#include "stats_json.hh"

#include <cctype>
#include <cstdlib>

namespace perfbench {

namespace {

class Walker
{
  public:
    Walker(const std::string &s, std::map<std::string, double> *totals)
        : s_(s), totals_(totals)
    {}

    bool
    run()
    {
        if (!value(""))
            return false;
        skipSpace();
        return pos_ == s_.size();
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    eat(char c)
    {
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    string(std::string *out)
    {
        if (!eat('"'))
            return false;
        out->clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\' && ++pos_ >= s_.size())
                return false;
            out->push_back(s_[pos_++]);
        }
        return pos_++ < s_.size();
    }

    void
    leaf(const std::string &path, double v)
    {
        for (auto &[suffix, total] : *totals_) {
            if (path.size() < suffix.size() ||
                path.compare(path.size() - suffix.size(), suffix.size(),
                             suffix) != 0)
                continue;
            if (path.size() == suffix.size() ||
                path[path.size() - suffix.size() - 1] == '.')
                total += v;
        }
    }

    bool
    value(const std::string &path)
    {
        skipSpace();
        if (pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            if (eat('}'))
                return true;
            do {
                std::string key;
                if (!string(&key) || !eat(':') ||
                    !value(path.empty() ? key : path + "." + key))
                    return false;
            } while (eat(','));
            return eat('}');
        }
        if (c == '[') {
            ++pos_;
            if (eat(']'))
                return true;
            do {
                if (!value(path))
                    return false;
            } while (eat(','));
            return eat(']');
        }
        if (c == '"') {
            std::string ignored;
            return string(&ignored);
        }
        for (const char *word : {"true", "false", "null"}) {
            const std::string w(word);
            if (s_.compare(pos_, w.size(), w) == 0) {
                pos_ += w.size();
                return true;
            }
        }
        const char *begin = s_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(begin, &end);
        if (end == begin)
            return false;
        pos_ += static_cast<std::size_t>(end - begin);
        leaf(path, v);
        return true;
    }

    const std::string &s_;
    std::map<std::string, double> *totals_;
    std::size_t pos_ = 0;
};

} // namespace

bool
sumStatLeaves(const std::string &json,
              std::map<std::string, double> *totals)
{
    return Walker(json, totals).run();
}

} // namespace perfbench
