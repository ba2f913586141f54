#include "exec/file_io.hh"

#include <cerrno>

#include <fcntl.h>
#include <unistd.h>

namespace dora
{

bool
writeAll(int fd, std::string_view bytes)
{
    const char *p = bytes.data();
    size_t n = bytes.size();
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

bool
readAll(int fd, std::string *out)
{
    char buf[64 * 1024];
    for (;;) {
        const ssize_t r = ::read(fd, buf, sizeof(buf));
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (r == 0)
            return true;
        out->append(buf, static_cast<size_t>(r));
    }
}

bool
readFile(const std::string &path, std::string *out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    const bool ok = readAll(fd, out);
    ::close(fd);
    return ok;
}

bool
writeFileAtomic(const std::string &path, std::string_view bytes)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (fd < 0)
        return false;
    bool ok = writeAll(fd, bytes) && ::fsync(fd) == 0;
    ::close(fd);
    ok = ok && ::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
        const int saved = errno;
        ::unlink(tmp.c_str());
        errno = saved;
    }
    return ok;
}

} // namespace dora
